package verify

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"fraz"
	"fraz/benchmark/fieldgen"
	"fraz/internal/container"
)

// sealed compresses a small field at a fixed bound and returns everything
// Archive takes.
func sealed(t *testing.T, codec string, bound float64) (fieldgen.Data, []byte, Sealed) {
	t.Helper()
	d := fieldgen.New(11, [3]int{16, 24, 24}, false)
	var buf bytes.Buffer
	res, err := fraz.Compress(context.Background(), &buf, d.F32, d.Shape, fraz.Codec(codec), fraz.FixedBound(bound))
	if err != nil {
		t.Fatal(err)
	}
	return d, buf.Bytes(), FromResult(res)
}

func TestArchiveAcceptsWhatWasSealed(t *testing.T) {
	ctx := context.Background()
	d, archive, s := sealed(t, "sz:abs", 1e-2)
	rep, err := Archive(ctx, d, archive, s, Request{})
	if err != nil {
		t.Fatal(err)
	}
	if !(rep.MaxError > 0 && rep.MaxError <= 1e-2) || !rep.InBand {
		t.Errorf("report %+v, want a max error in (0, 0.01] and in band", rep)
	}
	// A band the archive's ratio is outside of is a broken promise, not an
	// error.
	rep, err = Archive(ctx, d, archive, s, Request{Objective: "ratio", Target: 2 * s.Ratio, Tolerance: 0.1})
	if err != nil || rep.InBand {
		t.Errorf("ratio %.2f against a target of twice that: in band %v, error %v", s.Ratio, rep.InBand, err)
	}
	rep, err = Archive(ctx, d, archive, s, Request{Objective: "ratio", Target: 1.05 * s.Ratio, Tolerance: 0.1})
	if err != nil || !rep.InBand {
		t.Errorf("ratio %.2f against a target 5%% above: in band %v, error %v", s.Ratio, rep.InBand, err)
	}
	// frsz's payload size is a closed form of the shape and the rate.
	d, archive, s = sealed(t, "frsz:rate", 8)
	if _, err := Archive(ctx, d, archive, s, Request{}); err != nil {
		t.Errorf("frsz archive: %v", err)
	}
}

func TestArchiveCatches(t *testing.T) {
	ctx := context.Background()
	d, archive, s := sealed(t, "sz:abs", 1e-2)

	relabelled := func(edit func(*container.Container)) []byte {
		cn, err := container.Decode(archive)
		if err != nil {
			t.Fatal(err)
		}
		edit(&cn)
		out, err := cn.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	moved := fieldgen.Data{Shape: d.Shape, F32: append([]float32(nil), d.F32...)}
	moved.F32[1000] += 0.5

	for _, c := range []struct {
		name    string
		orig    fieldgen.Data
		archive []byte
		sealed  func(Sealed) Sealed
		want    string
	}{
		{
			name: "a flipped payload byte", orig: d,
			archive: func() []byte {
				b := append([]byte(nil), archive...)
				b[len(b)-20] ^= 0x40
				return b
			}(),
			want: "decode",
		},
		{
			// The header claims a ratio the bytes do not have — as a seal
			// would that recorded the tuner's sampled-block ratio.
			name: "a header ratio the payload does not have", orig: d,
			archive: relabelled(func(cn *container.Container) { cn.Header.Ratio *= 1.5 }),
			sealed:  func(s Sealed) Sealed { s.Ratio *= 1.5; return s },
			want:    "payload bytes is",
		},
		{
			name: "a header that disagrees with the call", orig: d,
			archive: relabelled(func(cn *container.Container) { cn.Header.Ratio *= 1.5 }),
			want:    "call reported",
		},
		{
			name: "a value outside the sealed bound", orig: moved, archive: archive,
			want: "sealed bound",
		},
		{
			name: "a field of another shape", archive: archive,
			orig: fieldgen.New(11, [3]int{24, 16, 24}, false),
			want: "shape",
		},
		{
			name: "a byte count the call did not report", orig: d, archive: archive,
			sealed: func(s Sealed) Sealed { s.BytesWritten++; return s },
			want:   "call reported",
		},
	} {
		sl := s
		if c.sealed != nil {
			sl = c.sealed(s)
		}
		if len(c.archive) != len(archive) {
			sl.BytesWritten = int64(len(c.archive))
		}
		_, err := Archive(ctx, c.orig, c.archive, sl, Request{})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one mentioning %q", c.name, err, c.want)
		}
	}
}

func TestArchiveChecksRecordedPSNR(t *testing.T) {
	ctx := context.Background()
	d := fieldgen.New(12, [3]int{16, 24, 24}, false)
	var buf bytes.Buffer
	res, err := fraz.Compress(ctx, &buf, d.F32, d.Shape, fraz.Codec("sz:abs"), fraz.TargetPSNR(60))
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Objective: "psnr", Target: 60, Tolerance: 0.05}
	rep, err := Archive(ctx, d, buf.Bytes(), FromResult(res), req)
	if err != nil || !rep.InBand {
		t.Fatalf("in band %v, error %v", rep.InBand, err)
	}
	cn, err := container.Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	cn.Header.Objective.Achieved += 3
	lying, err := cn.Encode()
	if err != nil {
		t.Fatal(err)
	}
	s := FromResult(res)
	s.Achieved += 3
	s.BytesWritten = int64(len(lying))
	if _, err := Archive(ctx, d, lying, s, req); err == nil || !strings.Contains(err.Error(), "reconstruction measures") {
		t.Errorf("a recorded PSNR 3 dB above the measured one: error %v", err)
	}
}
