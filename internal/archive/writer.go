package archive

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Writer assembles a dataset archive: payloads stream to the destination as
// they are added, the directory and footer are written once at Close. A
// Writer is not safe for concurrent use.
type Writer struct {
	w       io.Writer
	off     int64 // next payload offset (absolute)
	entries []Entry
	seen    map[string]struct{}
	closed  bool
}

// NewWriter starts a new dataset archive on w, writing the fixed header
// immediately so payloads can stream behind it.
func NewWriter(w io.Writer) (*Writer, error) {
	var hdr [headerSize]byte
	copy(hdr[:4], magic[:])
	binary.LittleEndian.PutUint16(hdr[4:6], Version)
	if _, err := w.Write(hdr[:]); err != nil {
		return nil, fmt.Errorf("archive: writing header: %w", err)
	}
	return &Writer{w: w, off: headerSize, seen: map[string]struct{}{}}, nil
}

// AppendTo reopens an existing archive for appending: the directory is read
// back (validating it exactly as OpenReader would), the write position moves
// to where the old directory began, and new payloads overwrite only the old
// directory and footer. Every previously written payload byte keeps its
// offset and content; Close writes a fresh directory covering old and new
// entries alike.
func AppendTo(rw io.ReadWriteSeeker) (*Writer, error) {
	entries, dirOff, err := readDirectory(rw)
	if err != nil {
		return nil, err
	}
	if _, err := rw.Seek(dirOff, io.SeekStart); err != nil {
		return nil, fmt.Errorf("archive: seeking to directory: %w", err)
	}
	w := &Writer{w: rw, off: dirOff, entries: entries, seen: make(map[string]struct{}, len(entries))}
	for _, e := range entries {
		w.seen[e.key()] = struct{}{}
	}
	return w, nil
}

// Add appends one field@step payload. The payload must be a complete
// single-field `.fraz` container stream (the embedded format every entry
// carries); a payload that does not start with the `.fraz` magic is
// rejected, catching callers that hand over raw field bytes. Duplicate
// (name, step) pairs fail with ErrDuplicate. It returns the directory entry
// written, whose Offset is where the payload landed.
func (w *Writer) Add(name string, step int, payload []byte) (Entry, error) {
	if w.closed {
		return Entry{}, fmt.Errorf("archive: Add after Close")
	}
	if err := validateEntry(name, step); err != nil {
		return Entry{}, err
	}
	key := entryKey(name, step)
	if len(payload) < 4 || !bytes.Equal(payload[:3], magic[:3]) || payload[3] != 0x01 {
		return Entry{}, fmt.Errorf("%w: payload for %s is not a .fraz container stream", ErrCorrupt, key)
	}
	if _, dup := w.seen[key]; dup {
		return Entry{}, fmt.Errorf("%w: %s", ErrDuplicate, key)
	}
	if _, err := w.w.Write(payload); err != nil {
		return Entry{}, fmt.Errorf("archive: writing payload for %s: %w", key, err)
	}
	e := Entry{
		Name:   name,
		Step:   step,
		Offset: w.off,
		Length: int64(len(payload)),
		CRC:    crc32.ChecksumIEEE(payload),
	}
	w.entries = append(w.entries, e)
	w.seen[key] = struct{}{}
	w.off += e.Length
	return e, nil
}

// Entries lists the directory as it will be written (including, in append
// mode, the entries carried over from the existing archive), sorted by
// field name, then step, as Reader.Entries is.
func (w *Writer) Entries() []Entry {
	out := make([]Entry, len(w.entries))
	copy(out, w.entries)
	sortEntries(out)
	return out
}

// Close writes the directory and footer, completing the archive. The
// destination writer itself is not closed — the Writer does not own it.
// Close is not idempotent-safe for further Adds; a second Close is an error.
func (w *Writer) Close() error {
	if w.closed {
		return fmt.Errorf("archive: already closed")
	}
	w.closed = true
	dir := encodeDirectory(w.entries)
	if _, err := w.w.Write(dir); err != nil {
		return fmt.Errorf("archive: writing directory: %w", err)
	}
	var foot [footerSize]byte
	binary.LittleEndian.PutUint64(foot[0:8], uint64(w.off))
	binary.LittleEndian.PutUint32(foot[8:12], uint32(len(dir)))
	copy(foot[12:], footMagic[:])
	if _, err := w.w.Write(foot[:]); err != nil {
		return fmt.Errorf("archive: writing footer: %w", err)
	}
	return nil
}
