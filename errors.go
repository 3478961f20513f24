package fraz

import (
	"errors"
	"fmt"

	"fraz/internal/archive"
	"fraz/internal/container"
	"fraz/internal/core"
	"fraz/internal/pressio"
)

// ErrInfeasible reports that no error bound in the admissible range reaches
// the target compression ratio within the tolerance. Compress fails with it
// (writing nothing), and TuneResult.Err returns it for infeasible tunes.
// Match with errors.Is; errors.As on *InfeasibleError recovers the closest
// configuration the search observed, so callers can decide whether to relax
// the tolerance, raise MaxError, or switch codecs.
var ErrInfeasible = core.ErrInfeasible

// InfeasibleError carries the closest observed configuration of an
// infeasible tune: the achieved ratio nearest the target, the bound that
// produced it, and its compressed size.
type InfeasibleError = core.InfeasibleError

// ErrUnknownCodec reports a codec name that is not in the registry — from
// New with a misspelled name, or from Decompress on a stream whose header
// names a codec this build does not carry. Codecs lists what is available.
var ErrUnknownCodec = errors.New("fraz: unknown codec")

// ErrCorrupt reports a stream that is not a decodable .fraz container or
// .frazd dataset archive: bad magic, a header field out of range, a
// truncated payload or directory, a CRC mismatch, a payload its codec
// refuses, or a format version newer than this build reads.
var ErrCorrupt = errors.New("fraz: invalid or corrupt .fraz stream")

// ErrFieldNotFound reports a Dataset lookup for a (field, step) pair the
// archive's directory does not hold. Dataset.Fields lists what is there.
var ErrFieldNotFound = errors.New("fraz: field not found in dataset")

// ErrDuplicateField reports an attempt to add a (field, step) pair the
// dataset already holds — entries are immutable once written, so a rewrite
// must go to a new archive.
var ErrDuplicateField = errors.New("fraz: duplicate field in dataset")

// ErrUnsupported reports a request this client can never serve, whatever
// the data: a shape outside the codec's rank window, an objective that is
// not measurable at the field's rank, or bounds that leave the codec's
// parameter no range to search. Unlike ErrInfeasible, no other target value
// helps; the caller has to change the codec, the objective or the shape.
var ErrUnsupported = errors.New("fraz: codec or objective cannot serve this request")

// wrapStreamErr maps internal container, registry and tuner failures onto the
// package's public sentinels, keeping the original error in the chain for
// diagnostics without making callers depend on internal error values.
func wrapStreamErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, container.ErrBadMagic),
		errors.Is(err, container.ErrVersion),
		errors.Is(err, container.ErrTruncated),
		errors.Is(err, container.ErrCorrupt),
		errors.Is(err, container.ErrHeader),
		errors.Is(err, archive.ErrBadMagic),
		errors.Is(err, archive.ErrVersion),
		errors.Is(err, archive.ErrTruncated),
		errors.Is(err, archive.ErrCorrupt),
		errors.Is(err, pressio.ErrPayload):
		return fmt.Errorf("%w: %w", ErrCorrupt, err)
	case errors.Is(err, archive.ErrNotFound):
		return fmt.Errorf("%w: %w", ErrFieldNotFound, err)
	case errors.Is(err, archive.ErrDuplicate):
		return fmt.Errorf("%w: %w", ErrDuplicateField, err)
	case errors.Is(err, pressio.ErrUnknownCompressor):
		return fmt.Errorf("%w: %w", ErrUnknownCodec, err)
	case errors.Is(err, core.ErrBadConfig):
		return fmt.Errorf("%w: %w", ErrUnsupported, err)
	}
	return err
}
