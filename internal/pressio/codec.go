package pressio

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"fraz/internal/container"
	"fraz/internal/grid"
)

// Unit says what a codec's one tunable parameter measures. It is the fact
// the tuner needs before it can search a parameter it otherwise treats as a
// black box: whether the admissible interval scales with the data, and
// whether the closed-form quality models apply.
type Unit uint8

const (
	// UnitNone marks a parameter the codec ignores (lossless codecs).
	UnitNone Unit = iota
	// UnitAbsError is a pointwise error in the data's own units.
	UnitAbsError
	// UnitSquaredError is a mean squared error: data units, squared.
	UnitSquaredError
	// UnitRangeFraction is a pointwise error as a fraction of the field's
	// value range.
	UnitRangeFraction
	// UnitBits is a number of stored bits per value.
	UnitBits
	// UnitPlanes is a number of bit planes kept per block.
	UnitPlanes
)

// IsError reports whether the parameter is an error magnitude: a larger
// value permits a larger reconstruction error, in units tied to the data.
// Those are the parameters searched over an interval scaled to the field's
// value range, and the ones Tao et al.'s closed forms predict.
func (u Unit) IsError() bool {
	return u == UnitAbsError || u == UnitSquaredError || u == UnitRangeFraction
}

// IsBitCount reports whether the parameter counts bits or bit planes: it
// bounds no error and has nothing to do with the data's scale.
func (u Unit) IsBitCount() bool { return u == UnitBits || u == UnitPlanes }

// Param declares the domain of a codec's tunable parameter.
type Param struct {
	// Name is the display name, e.g. "absolute error bound".
	Name string
	// Unit says what the value measures.
	Unit Unit
	// Lo and Hi bound the admissible values, in the parameter's own units.
	// For the bit-valued units Hi is the ceiling for float32 elements, and
	// the interval searched at either width; see Limits.
	Lo, Hi float64
	// Integer marks parameters the codec takes as whole numbers.
	Integer bool
}

// Snap returns the value the codec runs at for a requested v: the nearest
// whole number on an integer domain, v itself otherwise. Everything that
// records or keys on a parameter (the evaluation cache, container headers)
// snaps first, so what is recorded is what was run.
func (p Param) Snap(v float64) float64 {
	if p.Integer {
		return math.Round(v)
	}
	return v
}

// Limits returns the interval Compress admits for elements of the given
// type: [Lo, Hi], except that a bit count may reach the full width of a
// wider element.
func (p Param) Limits(dt container.DType) (lo, hi float64) {
	hi = p.Hi
	if w := float64(8 * dt.Size()); p.Unit.IsBitCount() && w > hi {
		hi = w
	}
	return p.Lo, hi
}

// check rejects a value outside the declared domain.
func (p Param) check(v float64, dt container.DType) error {
	if p.Unit == UnitNone {
		return nil
	}
	if lo, hi := p.Limits(dt); !(v >= lo && v <= hi) {
		return fmt.Errorf("%s %v outside [%g, %g]", p.Name, v, lo, hi)
	}
	if p.Integer && v != math.Trunc(v) { //frazlint:allow floateq -- a whole number is an exact property
		return fmt.Errorf("%s %v is not a whole number", p.Name, v)
	}
	return nil
}

// Codec describes one compressor configuration: everything the framework
// knows about it, stated once. The built-in codecs are the rows of the
// table in codecs.go; tests build fakes as literals of this type.
type Codec struct {
	// Name identifies the codec, e.g. "sz:abs". It is the name written into
	// container headers, so renaming a codec orphans existing archives.
	Name string
	// MinRank and MaxRank bound the data ranks the codec accepts.
	MinRank, MaxRank int
	// Param is the domain of the tunable parameter.
	Param Param
	// Encode and Decode are the kernel, and both must be safe for concurrent
	// use. Encode compresses the buffer at the given parameter value and
	// returns freshly allocated memory that aliases neither its input nor
	// codec-internal state: the caller's to keep, never pooled (its capacity
	// may exceed its length). Decode reverses it into dst, whose shape and element type
	// are what the stream must hold: it writes exactly dst.Len() values or
	// fails, and never allocates the output.
	// Callers go through Compress, Decompress and OpenBlocked, which check
	// the shape and the parameter against the descriptor first.
	Encode func(buf Buffer, param float64) ([]byte, error)
	Decode func(comp []byte, dst Buffer) error
	// Reconstructs marks a codec whose encoder builds, as it writes the
	// stream, the values its decoder will produce (sz predicts from them;
	// szx keeps each block's midrange or leading bytes; zfp keeps each
	// coefficient's bit planes from kmin up, which its accuracy and
	// precision modes code in full). Its Encode writes them, bit for bit
	// what Decode of the returned stream writes, into the destination a
	// quality evaluation attaches to the buffer, and the evaluation reports
	// on them instead of decoding the stream. Any other codec's quality
	// evaluation decodes.
	Reconstructs bool
	// Size, when set, marks a true fixed-rate codec: the parameter is the
	// storage itself (bits per value), and Size returns the exact length of
	// Encode's stream for a shape from arithmetic alone. The tuner inverts
	// it to satisfy a fixed-ratio objective with zero evaluations. zfp:rate
	// has none: its length is exact too (zfp.CompressedSizeFixedRate), but
	// its rate is a real number of bits per value, not the whole bit count
	// Size takes.
	Size func(shape grid.Dims, bits int) int
}

// Compressor is what the tuner, the evaluator and the seal path drive: the
// two operations, plus the descriptor they read every static fact from.
// *Codec implements it; a wrapper that embeds a Compressor to instrument
// one operation keeps the descriptor of what it wraps.
type Compressor interface {
	Descriptor() *Codec
	// Compress compresses the buffer with the tunable parameter set to
	// param.
	Compress(buf Buffer, param float64) ([]byte, error)
	// Decompress reconstructs data previously compressed by this codec at
	// the given element width. The returned buffer is the caller's own, a
	// plain allocation of exactly the shape's length.
	Decompress(comp []byte, shape grid.Dims, dtype container.DType) (Buffer, error)
}

// RateCompressor exists for the frozen benchmark module, which asserts it
// on a fixed-rate codec to reach Size; in-tree code reads Codec.Size.
type RateCompressor interface {
	Compressor
	CompressedSize(shape grid.Dims, bitsPerValue int) int
}

// Descriptor returns c.
func (c *Codec) Descriptor() *Codec { return c }

// SupportsShape reports whether the shape is valid and its rank lies in the
// codec's window.
func (c *Codec) SupportsShape(shape grid.Dims) bool {
	return shape.Validate() == nil && shape.NDims() >= c.MinRank && shape.NDims() <= c.MaxRank
}

// Compress implements Compressor: Encode, behind the descriptor's checks.
func (c *Codec) Compress(buf Buffer, param float64) ([]byte, error) {
	if !c.SupportsShape(buf.Shape) {
		return nil, fmt.Errorf("%s: unsupported shape %v (ranks %d..%d)", c.Name, buf.Shape, c.MinRank, c.MaxRank)
	}
	if err := c.Param.check(param, buf.dtype); err != nil {
		return nil, fmt.Errorf("%s: %w", c.Name, err)
	}
	return c.Encode(buf, param)
}

// Decompress implements Compressor: Decode into a new buffer, behind the
// descriptor's checks.
func (c *Codec) Decompress(comp []byte, shape grid.Dims, dtype container.DType) (Buffer, error) {
	out, err := c.output(shape, dtype)
	if err != nil {
		return Buffer{}, err
	}
	if err := c.decode(comp, out); err != nil {
		return Buffer{}, err
	}
	return out, nil
}

// output allocates the buffer a decode of the given shape and element type
// writes into, once the shape is one the codec takes. It is the one place a
// decode output is allocated: Decompress fills it from one stream,
// OpenBlocked from one stream per block, each into its own slice.
func (c *Codec) output(shape grid.Dims, dtype container.DType) (Buffer, error) {
	if !c.SupportsShape(shape) {
		return Buffer{}, fmt.Errorf("%s: unsupported shape %v (ranks %d..%d)", c.Name, shape, c.MinRank, c.MaxRank)
	}
	switch dtype {
	case container.Float32:
		return Buffer{Shape: shape, dtype: dtype, f32: make([]float32, shape.Len())}, nil
	case container.Float64:
		return Buffer{Shape: shape, dtype: dtype, f64: make([]float64, shape.Len())}, nil
	}
	return Buffer{}, fmt.Errorf("pressio: cannot decode %s payloads (this build reads float32 and float64)", dtype)
}

// decode is Decode, with a refusal reported as ErrPayload.
func (c *Codec) decode(comp []byte, dst Buffer) error {
	if err := c.Decode(comp, dst); err != nil {
		return fmt.Errorf("%w: %w", ErrPayload, err)
	}
	return nil
}

// ErrPayload is returned by Decompress and OpenBlocked when the kernel
// refuses the payload, or a container's shape holds more values than its
// payload can carry: the container around it was intact (its CRC matched),
// what it carries is not a stream of the codec it names. To a caller that
// is a corrupt archive, not an internal failure.
var ErrPayload = errors.New("pressio: payload does not decode")

// CompressedSize implements RateCompressor. It must only be called on a
// codec whose Size is set.
func (c *Codec) CompressedSize(shape grid.Dims, bitsPerValue int) int {
	return c.Size(shape, bitsPerValue)
}

// ErrUnknownCompressor is returned by New and OpenBlocked for unregistered
// names.
var ErrUnknownCompressor = errors.New("pressio: unknown compressor")

var (
	registryMu sync.RWMutex
	registry   = map[string]*Codec{}
)

// Register adds a descriptor to the registry. It is called once per table
// row at start-up and by tests installing fakes; an empty or duplicate name
// panics, as those are always programming errors.
func Register(c *Codec) {
	if c.Name == "" {
		panic("pressio: Register with empty codec name")
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[c.Name]; dup {
		panic(fmt.Sprintf("pressio: duplicate registration of %q", c.Name))
	}
	registry[c.Name] = c
}

// Lookup returns the descriptor registered under name.
func Lookup(name string) (*Codec, bool) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	c, ok := registry[name]
	return c, ok
}

// New resolves a registered codec by name. It returns the interface rather
// than the *Codec because the frozen benchmark module type-asserts the
// result; in-tree callers that want the facts call Lookup.
func New(name string) (Compressor, error) {
	c, err := lookup(name)
	if err != nil {
		return nil, err // not a nil *Codec in a non-nil interface
	}
	return c, nil
}

// lookup is Lookup with ErrUnknownCompressor for a name not registered.
func lookup(name string) (*Codec, error) {
	c, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("%w: %q (available: %v)", ErrUnknownCompressor, name, Names())
	}
	return c, nil
}

// Codecs lists the registered descriptors sorted by name.
func Codecs() []*Codec {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]*Codec, 0, len(registry))
	for _, c := range registry {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Names lists the registered codec names in sorted order.
func Names() []string {
	codecs := Codecs()
	names := make([]string, len(codecs))
	for i, c := range codecs {
		names[i] = c.Name
	}
	return names
}
