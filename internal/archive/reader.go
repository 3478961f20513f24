package archive

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sort"

	"fraz/internal/container"
)

// Reader gives lazy access to the fields of a dataset archive: opening it
// reads the footer and directory alone (two seeks), and each field's payload
// is read — and CRC-verified — only when that field is opened. A Reader
// shares one seek position, so it is not safe for concurrent use; wrap
// independent byte slices in bytes.Readers for concurrent access.
type Reader struct {
	r       io.ReadSeeker
	entries []Entry
	index   map[string]int
}

// readDirectory locates and parses the directory of an archive: header
// magic and version, footer, directory CRC, and every entry's bounds. It
// returns the validated entries and the directory's absolute offset (the
// end of the payload area), leaving the seek position unspecified.
func readDirectory(r io.ReadSeeker) ([]Entry, int64, error) {
	size, err := r.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, 0, fmt.Errorf("archive: sizing archive: %w", err)
	}
	// Smallest possible archive: header + empty directory (count + CRC) + footer.
	if size < headerSize+8+footerSize {
		return nil, 0, fmt.Errorf("%w: %d bytes (smallest archive is %d)", ErrTruncated, size, headerSize+8+footerSize)
	}
	if _, err := r.Seek(0, io.SeekStart); err != nil {
		return nil, 0, fmt.Errorf("archive: seeking to header: %w", err)
	}
	var hdr [headerSize]byte
	if err := readFull(r, hdr[:], "header"); err != nil {
		return nil, 0, err
	}
	if [4]byte(hdr[:4]) != magic {
		return nil, 0, ErrBadMagic
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v == 0 || v > maxVersion {
		return nil, 0, fmt.Errorf("%w: %d (this build reads <= %d)", ErrVersion, v, maxVersion)
	}
	if _, err := r.Seek(size-footerSize, io.SeekStart); err != nil {
		return nil, 0, fmt.Errorf("archive: seeking to footer: %w", err)
	}
	var foot [footerSize]byte
	if err := readFull(r, foot[:], "footer"); err != nil {
		return nil, 0, err
	}
	if [4]byte(foot[12:]) != footMagic {
		return nil, 0, fmt.Errorf("%w: footer magic missing (archive not closed?)", ErrBadMagic)
	}
	dirOff := binary.LittleEndian.Uint64(foot[0:8])
	dirLen := binary.LittleEndian.Uint32(foot[8:12])
	// The directory must exactly fill the gap between the payload area and
	// the footer; anything else means a truncated rewrite or trailing bytes.
	if dirOff < headerSize || dirOff+uint64(dirLen) != uint64(size-footerSize) {
		return nil, 0, fmt.Errorf("%w: directory [%d,%d) does not abut footer at %d", ErrCorrupt, dirOff, dirOff+uint64(dirLen), size-footerSize)
	}
	if _, err := r.Seek(int64(dirOff), io.SeekStart); err != nil {
		return nil, 0, fmt.Errorf("archive: seeking to directory: %w", err)
	}
	dir := make([]byte, dirLen)
	if err := readFull(r, dir, "directory"); err != nil {
		return nil, 0, err
	}
	entries, err := parseDirectory(dir, int64(dirOff))
	if err != nil {
		return nil, 0, err
	}
	return entries, int64(dirOff), nil
}

// OpenReader opens a dataset archive for lazy field access. Only the header,
// footer, and directory are read; payload bytes stay on the underlying
// reader until a field is opened.
func OpenReader(r io.ReadSeeker) (*Reader, error) {
	entries, _, err := readDirectory(r)
	if err != nil {
		return nil, err
	}
	index := make(map[string]int, len(entries))
	for i, e := range entries {
		index[e.key()] = i
	}
	return &Reader{r: r, entries: entries, index: index}, nil
}

// Entries lists the directory sorted by field name, then step.
func (r *Reader) Entries() []Entry {
	out := make([]Entry, len(r.entries))
	copy(out, r.entries)
	sortEntries(out)
	return out
}

// Names lists the distinct field names in the archive, sorted.
func (r *Reader) Names() []string {
	seen := map[string]bool{}
	var names []string
	for _, e := range r.entries {
		if !seen[e.Name] {
			seen[e.Name] = true
			names = append(names, e.Name)
		}
	}
	sort.Strings(names)
	return names
}

// Lookup returns the directory entry for (name, step).
func (r *Reader) Lookup(name string, step int) (Entry, bool) {
	i, ok := r.index[entryKey(name, step)]
	if !ok {
		return Entry{}, false
	}
	return r.entries[i], true
}

// Open reads, CRC-verifies, and decodes one field's embedded `.fraz`
// container. Only that entry's payload bytes are read from the underlying
// reader — other fields are never touched.
func (r *Reader) Open(name string, step int) (container.Container, error) {
	e, ok := r.Lookup(name, step)
	if !ok {
		return container.Container{}, fmt.Errorf("%w: %s (archive holds %v)", ErrNotFound, entryKey(name, step), r.Names())
	}
	if _, err := r.r.Seek(e.Offset, io.SeekStart); err != nil {
		return container.Container{}, fmt.Errorf("archive: seeking to %s: %w", e.key(), err)
	}
	// e.Length was bounds-checked against the payload area at open, so this
	// allocation is backed by bytes the archive actually holds.
	payload := make([]byte, e.Length)
	if err := readFull(r.r, payload, "payload of "+e.key()); err != nil {
		return container.Container{}, err
	}
	if crc32.ChecksumIEEE(payload) != e.CRC {
		return container.Container{}, fmt.Errorf("%w: payload CRC mismatch for %s", ErrCorrupt, e.key())
	}
	cn, err := container.Decode(payload)
	if err != nil {
		return container.Container{}, fmt.Errorf("archive: decoding %s: %w", e.key(), err)
	}
	return cn, nil
}
