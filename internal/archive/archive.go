// Package archive defines the `.frazd` dataset-archive format: a
// super-container holding many named fields, each an embedded
// self-describing `.fraz` container with its own codec, dtype, shape, and
// objective record.
//
// FRaZ's workloads (SDRBench-style application snapshots) are dozens of
// named fields per time-step, but a `.fraz` container holds exactly one
// grid. The dataset archive closes that gap the way the single-field format
// closed the bare-blob gap: a small versioned header, a CRC-indexed
// directory, and payloads that are themselves complete `.fraz` streams — so
// every field keeps its own tuned bound, achieved ratio, and quality
// promise, and a reader can decode one field without touching the others.
//
// Layout (all integers little-endian):
//
//	offset  size  field
//	0       4     magic "FRZ\xA1"
//	4       2     format version (1)
//	6       2     reserved (written as 0, ignored on read)
//	8       ...   entry payloads, concatenated; each one complete `.fraz` stream
//	D       ...   directory (see below)
//	end−16  8     directory offset D (uint64, absolute)
//	end−8   4     directory length (uint32, bytes in [D, end−16))
//	end−4   4     footer magic "FRZ\xA2"
//
// The directory sits between the last payload and the fixed-size footer:
//
//	...     4     entry count E (uint32, 0..MaxEntries)
//	per entry (E times):
//	...     1     field name length L (1..255)
//	...     L     field name (UTF-8, unique per (name, step))
//	...     4     time step (uint32)
//	...     8     payload offset (uint64, absolute)
//	...     8     payload length (uint64)
//	...     4     CRC-32 (IEEE) of the payload bytes
//	...     4     CRC-32 (IEEE) of the directory bytes above (count + entries)
//
// Putting the directory last is what makes the archive appendable: adding a
// time-step's fields to an existing archive overwrites only the old
// directory and footer with the new payloads, then writes a fresh directory
// — every previously written payload byte stays exactly where it was, which
// the offset/CRC pin test in the public package asserts. A reader locates
// the directory through the footer (one seek from the end), so opening a
// single field out of a many-gigabyte archive reads the footer, the
// directory, and that field's payload alone.
package archive

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sort"
)

// Version is the dataset-archive format version this build writes.
const Version = 1

// maxVersion is the newest format version this build decodes.
const maxVersion = Version

// MaxEntries caps the entry count a directory may declare, bounding the
// allocation a hostile footer can demand before any entry is parsed.
const MaxEntries = 1 << 20

// headerSize is the fixed archive header: magic + version + reserved, and
// so the offset of the first payload.
const headerSize = 8

// footerSize is the fixed trailer: directory offset + length + footer magic.
const footerSize = 16

// entryFixedSize is the per-entry directory size excluding the name bytes.
const entryFixedSize = 1 + 4 + 8 + 8 + 4

// magic identifies a dataset archive; footMagic marks the trailer that
// locates the directory. Both share the "FRZ" prefix with the single-field
// container but end in distinct non-printable bytes, so text files — and
// single-field `.fraz` streams — are rejected immediately.
var (
	magic     = [4]byte{'F', 'R', 'Z', 0xA1}
	footMagic = [4]byte{'F', 'R', 'Z', 0xA2}
)

// Sentinel errors returned (wrapped) by the reader and writer.
var (
	// ErrBadMagic means the stream does not start (or end) with the dataset
	// archive magic.
	ErrBadMagic = errors.New("archive: not a .frazd dataset archive (bad magic)")
	// ErrVersion means the archive was written by a newer format version.
	ErrVersion = errors.New("archive: unsupported format version")
	// ErrTruncated means the file ended before the directory or a payload did.
	ErrTruncated = errors.New("archive: truncated archive")
	// ErrCorrupt means a CRC-32 check failed or the directory is inconsistent.
	ErrCorrupt = errors.New("archive: corrupt archive")
	// ErrDuplicate means two entries claim the same (field, step).
	ErrDuplicate = errors.New("archive: duplicate field entry")
	// ErrNotFound means the requested (field, step) is not in the directory.
	ErrNotFound = errors.New("archive: field not found")
)

// Entry locates one field@step payload inside the archive.
type Entry struct {
	// Name is the field name, unique together with Step.
	Name string
	// Step is the time-step index the payload belongs to (0 for snapshots).
	Step int
	// Offset is the payload's absolute byte offset in the archive.
	Offset int64
	// Length is the payload length in bytes.
	Length int64
	// CRC is the CRC-32 (IEEE) of the payload bytes.
	CRC uint32
}

// key is the directory uniqueness key.
func (e Entry) key() string { return entryKey(e.Name, e.Step) }

func entryKey(name string, step int) string {
	return fmt.Sprintf("%s@%d", name, step)
}

// validateEntry rejects entries no writer produces: empty or oversized
// names, negative or oversized steps, and non-positive payload lengths.
func validateEntry(name string, step int) error {
	if name == "" || len(name) > 255 {
		return fmt.Errorf("%w: field name length %d (want 1..255)", ErrCorrupt, len(name))
	}
	if step < 0 || step > math.MaxUint32 {
		return fmt.Errorf("%w: time step %d (want 0..%d)", ErrCorrupt, step, uint32(math.MaxUint32))
	}
	return nil
}

// encodeDirectory renders the directory bytes (count + entries + CRC) for
// the given entries.
func encodeDirectory(entries []Entry) []byte {
	size := 4 + 4
	for _, e := range entries {
		size += entryFixedSize + len(e.Name)
	}
	buf := make([]byte, 0, size)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(entries)))
	for _, e := range entries {
		buf = append(buf, uint8(len(e.Name)))
		buf = append(buf, e.Name...)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.Step))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.Offset))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.Length))
		buf = binary.LittleEndian.AppendUint32(buf, e.CRC)
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// parseDirectory decodes and validates directory bytes: the trailing CRC,
// the declared count against the bytes present, each entry's name, step, and
// payload window (must lie inside [headerSize, payloadEnd)), and
// (name, step) uniqueness.
func parseDirectory(dir []byte, payloadEnd int64) ([]Entry, error) {
	if len(dir) < 8 {
		return nil, fmt.Errorf("%w: directory of %d bytes (want >= 8)", ErrTruncated, len(dir))
	}
	body, declared := dir[:len(dir)-4], binary.LittleEndian.Uint32(dir[len(dir)-4:])
	if crc32.ChecksumIEEE(body) != declared {
		return nil, fmt.Errorf("%w: directory CRC mismatch", ErrCorrupt)
	}
	count := binary.LittleEndian.Uint32(body)
	if count > MaxEntries {
		return nil, fmt.Errorf("%w: %d directory entries (max %d)", ErrCorrupt, count, MaxEntries)
	}
	if uint64(count)*(entryFixedSize+1) > uint64(len(body)-4) {
		return nil, fmt.Errorf("%w: %d entries cannot fit %d directory bytes", ErrCorrupt, count, len(body))
	}
	entries := make([]Entry, 0, count)
	seen := make(map[string]struct{}, count)
	pos := 4
	for i := 0; i < int(count); i++ {
		if pos >= len(body) {
			return nil, fmt.Errorf("%w: directory ends inside entry %d", ErrTruncated, i)
		}
		nameLen := int(body[pos])
		pos++
		if nameLen == 0 {
			return nil, fmt.Errorf("%w: entry %d has an empty name", ErrCorrupt, i)
		}
		if pos+nameLen+entryFixedSize-1 > len(body) {
			return nil, fmt.Errorf("%w: directory ends inside entry %d", ErrTruncated, i)
		}
		e := Entry{Name: string(body[pos : pos+nameLen])}
		pos += nameLen
		e.Step = int(binary.LittleEndian.Uint32(body[pos:]))
		pos += 4
		off := binary.LittleEndian.Uint64(body[pos:])
		pos += 8
		length := binary.LittleEndian.Uint64(body[pos:])
		pos += 8
		e.CRC = binary.LittleEndian.Uint32(body[pos:])
		pos += 4
		if off < headerSize || off > uint64(payloadEnd) {
			return nil, fmt.Errorf("%w: entry %s at offset %d outside payload area [%d,%d)", ErrCorrupt, e.key(), off, headerSize, payloadEnd)
		}
		if length == 0 || length > uint64(payloadEnd)-off {
			return nil, fmt.Errorf("%w: entry %s spans %d bytes at offset %d, payload area ends at %d", ErrCorrupt, e.key(), length, off, payloadEnd)
		}
		e.Offset = int64(off)
		e.Length = int64(length)
		if _, dup := seen[e.key()]; dup {
			return nil, fmt.Errorf("%w: %s", ErrDuplicate, e.key())
		}
		seen[e.key()] = struct{}{}
		entries = append(entries, e)
	}
	if pos != len(body) {
		return nil, fmt.Errorf("%w: %d trailing directory bytes after entry %d", ErrCorrupt, len(body)-pos, count)
	}
	return entries, nil
}

// sortEntries orders a directory listing for presentation: by name, then by
// step. The on-disk directory keeps insertion order (append order matters
// for the offset invariant); listings sort so output is stable regardless of
// the order fields were added in.
func sortEntries(entries []Entry) {
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Name != entries[j].Name {
			return entries[i].Name < entries[j].Name
		}
		return entries[i].Step < entries[j].Step
	})
}

// readFull reads exactly len(p) bytes at the reader's current position,
// mapping a premature end of stream to ErrTruncated.
func readFull(r io.Reader, p []byte, what string) error {
	if _, err := io.ReadFull(r, p); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return fmt.Errorf("%w: %s", ErrTruncated, what)
		}
		return err
	}
	return nil
}
