package server

import (
	"crypto/sha256"
	"encoding/hex"
	"net/http"
	"sync"
)

// This file is the server-side archive shelf: compressed containers a
// client asked the server to keep (?store=1) for later download or
// decompression by id. Ids are content-addressed (truncated SHA-256 of the
// archive bytes), so re-uploading the same field at the same tuning
// parameters lands on the same id instead of duplicating storage. The store
// is size-bounded with FIFO eviction — it is a staging area between
// pipeline stages, not durable storage.

// storedArchive is an archive and the headers that describe it (describe),
// kept as they were answered at upload and replayed on download.
type storedArchive struct {
	data   []byte
	header http.Header
}

// archiveStore is a bounded in-memory map of id → archive with FIFO
// eviction by byte budget and entry count.
type archiveStore struct {
	maxBytes   int64
	maxEntries int

	mu    sync.Mutex
	m     map[string]*storedArchive
	order []string // insertion order, oldest first
	bytes int64
}

func newArchiveStore(maxBytes int64, maxEntries int) *archiveStore {
	return &archiveStore{
		maxBytes:   maxBytes,
		maxEntries: maxEntries,
		m:          make(map[string]*storedArchive),
	}
}

// archiveID is the content address: the first 16 hex digits (64 bits) of
// the archive's SHA-256.
func archiveID(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}

// put stores the archive and returns its id. The caller must not mutate
// data or header afterwards (the store keeps both by reference). An archive larger than
// the whole budget is refused with ok=false rather than evicting everything
// else for nothing.
func (s *archiveStore) put(data []byte, header http.Header) (id string, ok bool) {
	if int64(len(data)) > s.maxBytes {
		return "", false
	}
	id = archiveID(data)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.m[id]; exists {
		return id, true // content-addressed: same bytes, same archive
	}
	for (s.bytes+int64(len(data)) > s.maxBytes || len(s.m) >= s.maxEntries) && len(s.order) > 0 {
		oldest := s.order[0]
		s.order = s.order[1:]
		if a, live := s.m[oldest]; live {
			s.bytes -= int64(len(a.data))
			delete(s.m, oldest)
		}
	}
	s.m[id] = &storedArchive{data: data, header: header}
	s.order = append(s.order, id)
	s.bytes += int64(len(data))
	return id, true
}

func (s *archiveStore) get(id string) (*storedArchive, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	a, ok := s.m[id]
	return a, ok
}

// remove deletes the archive; its order entry is left stale and skipped by
// the eviction sweep.
func (s *archiveStore) remove(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	a, ok := s.m[id]
	if !ok {
		return false
	}
	s.bytes -= int64(len(a.data))
	delete(s.m, id)
	return true
}

func (s *archiveStore) stats() (bytes int64, entries int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes, len(s.m)
}
