// Command fraz performs target-driven lossy compression of a single field:
// it tunes the chosen compressor's error bound until the achieved value of
// the selected objective — compression ratio by default (-ratio), or a
// quality target (-psnr, -ssim, -target-max-error) — lands in the
// acceptance band, then optionally writes a self-describing .fraz
// container. It is a thin shell over the public fraz package — every
// capability here is available to any Go program through the same API.
//
// Quality-targeted archives record the objective, target, band, and
// achieved value in the container header; `-decompress x.fraz -verify`
// recomputes the promise and exits non-zero if the archive misses it:
//
//	fraz -dataset Hurricane -field TCf -psnr 60 -out tcf.fraz
//	fraz -decompress tcf.fraz -verify -dataset Hurricane -field TCf
//
// The field can come from a raw little-endian float32 file (-in, with -dims)
// or from one of the built-in synthetic SDRBench stand-ins (-dataset/-field).
//
// A .fraz container records the codec, tuned bound, achieved ratio, and
// shape in its header, so decompression needs no flags beyond the file:
//
//	fraz -dataset Hurricane -field TCf -ratio 10 -out tcf.fraz
//	fraz -decompress tcf.fraz -out tcf.f32
//	fraz -in cloud.f32 -dims 100x500x500 -compressor zfp:accuracy -ratio 25 -out cloud.fraz
//
// With -blocks N the field is split into N slowest-axis blocks: the bound is
// tuned once on a sampled block and all blocks are compressed concurrently
// into a blocked (v2) container whose per-block index lets -decompress
// verify and decode the blocks in parallel too. -decompress auto-detects v1
// versus v2 from the header:
//
//	fraz -dataset Hurricane -field TCf -ratio 10 -blocks 8 -out tcf.fraz
//	fraz -decompress tcf.fraz -out tcf.f32
//
// When the target ratio is not reachable at any admissible error bound the
// command reports the closest observed configuration and exits non-zero.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"fraz"
	"fraz/internal/container"
	"fraz/internal/dataset"
	"fraz/internal/grid"
	"fraz/internal/report"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fraz:", err)
		os.Exit(1)
	}
}

func codecNames() []string {
	infos := fraz.Codecs()
	names := make([]string, len(infos))
	for i, ci := range infos {
		names[i] = ci.Name
	}
	return names
}

// source names where one field comes from: a raw little-endian file (or "-"
// for standard input) of a given shape, or a field of a built-in synthetic
// dataset. It is the input flags, and what -fields derives from them per
// field.
type source struct {
	in, dims, dataset, field string
	timeStep                 int
	scale                    string
}

func (src source) provided() bool { return src.in != "" || src.dataset != "" }

// flags is the parsed command line.
type flags struct {
	set *flag.FlagSet
	source
	decompress, dtype, compressor, fields, out string
	auto, verify                               bool
	step, regions, blocks, workers             int
	ratio, psnr, ssim, maxErrTgt               float64
	tolerance, maxError                        float64
	seed                                       int64
}

// wasSet reports whether the user passed the named flag explicitly.
func (f *flags) wasSet(name string) bool {
	set := false
	f.set.Visit(func(fl *flag.Flag) { set = set || fl.Name == name })
	return set
}

func parseFlags(args []string) (*flags, error) {
	fs := flag.NewFlagSet("fraz", flag.ContinueOnError)
	f := &flags{set: fs}
	fs.StringVar(&f.decompress, "decompress", "", "decompress this .fraz container (codec, bound, and shape come from its header)")
	fs.StringVar(&f.in, "in", "", "raw little-endian float input file (element width set by -dtype)")
	fs.StringVar(&f.dims, "dims", "", "input dimensions, slowest first, e.g. 100x500x500 (required with -in)")
	fs.StringVar(&f.dtype, "dtype", "float32", "element type of the input field: float32 or float64 (raw -in files and -dataset generation)")
	fs.StringVar(&f.dataset, "dataset", "", "built-in synthetic dataset name (Hurricane, HACC, CESM, EXAALT, NYX)")
	fs.StringVar(&f.field, "field", "", "field name within the dataset")
	fs.IntVar(&f.timeStep, "timestep", 0, "time-step within the dataset")
	fs.StringVar(&f.scale, "scale", "small", "synthetic dataset scale: tiny, small, medium")
	fs.StringVar(&f.compressor, "compressor", fraz.DefaultCodec, "compressor to tune: "+strings.Join(codecNames(), ", ")+", or "+fraz.CodecAuto)
	fs.BoolVar(&f.auto, "auto", false, "race every capable codec per field and seal with the winner (shorthand for -compressor "+fraz.CodecAuto+")")
	fs.StringVar(&f.fields, "fields", "", "compress several fields into one .frazd dataset archive: name=path,... (raw files, shared -dims) or name,... with -dataset")
	fs.IntVar(&f.step, "step", 0, "with -decompress on a .frazd archive: the time step of -field to extract")
	fs.Float64Var(&f.ratio, "ratio", 10, "target compression ratio")
	fs.Float64Var(&f.psnr, "psnr", 0, "tune to this reconstruction PSNR in dB instead of a ratio")
	fs.Float64Var(&f.ssim, "ssim", 0, "tune to this mid-slice SSIM instead of a ratio")
	fs.Float64Var(&f.maxErrTgt, "target-max-error", 0, "tune to this measured maximum pointwise error instead of a ratio")
	fs.Float64Var(&f.tolerance, "tolerance", 0.1, "acceptance half-width: fractional for -ratio/-psnr, absolute for -ssim/-target-max-error")
	fs.BoolVar(&f.verify, "verify", false, "with -decompress: recompute the archive's recorded objective and exit non-zero if it misses the stored band (quality objectives need the original field via -in or -dataset)")
	fs.Float64Var(&f.maxError, "max-error", 0, "maximum allowed compression error U (0 = value range of the data)")
	fs.IntVar(&f.regions, "regions", 12, "number of overlapping error-bound search regions")
	fs.IntVar(&f.blocks, "blocks", 0, "split the field into N slowest-axis blocks, tune on one sampled block, and compress the blocks in parallel into a blocked (v2) container (0 or 1 = monolithic)")
	fs.IntVar(&f.workers, "workers", 0, "parallel workers (0 = GOMAXPROCS)")
	fs.Int64Var(&f.seed, "seed", 1, "search seed")
	fs.StringVar(&f.out, "out", "", "compress: write a .fraz container here; decompress: write raw float32 here")
	return f, fs.Parse(args)
}

// run parses the command line and hands it to one of the three modes:
// decompress (a container or a dataset archive), compress several fields
// into a dataset archive, compress one field into a container.
func run(args []string, out io.Writer) error {
	f, err := parseFlags(args)
	if err != nil {
		return err
	}
	// With -out - the data stream owns standard output, so the report moves
	// to standard error to keep pipelines clean.
	if f.out == "-" {
		out = stderr
	}
	// -dtype is validated in every mode.
	dtype, err := container.ParseDType(f.dtype)
	if err != nil {
		return err
	}
	wide := dtype == container.Float64
	if f.decompress != "" {
		return f.runDecompress(dtype, out)
	}

	// -auto is shorthand for -compressor auto; naming both a concrete codec
	// and the race is a contradiction, not a preference.
	if f.auto {
		if f.wasSet("compressor") && f.compressor != fraz.CodecAuto {
			return fmt.Errorf("-auto races the codecs, -compressor %s names one; pick one of the two", f.compressor)
		}
		f.compressor = fraz.CodecAuto
	}
	target, targetDesc, err := f.selectTarget()
	if err != nil {
		return err
	}
	opts := []fraz.Option{
		target,
		fraz.MaxError(f.maxError),
		fraz.Regions(f.regions),
		fraz.Blocks(max(f.blocks, 1)), // 0 and 1 both mean a monolithic (v1) container
		fraz.Workers(f.workers),
		fraz.Seed(f.seed),
	}
	if f.wasSet("tolerance") {
		opts = append(opts, fraz.Tolerance(f.tolerance))
	}
	if f.fields != "" {
		return f.runCompressFields(wide, opts, targetDesc, out)
	}
	return f.runCompress(wide, opts, targetDesc, out)
}

// runDecompress is the -decompress mode. Every decompression parameter
// comes from the archive's own header, so any other flag the user set would
// be silently ignored — reject it instead of letting them believe it took
// effect. -verify is the exception: it re-measures the archive's promise,
// and quality promises need the original field, so the input flags are
// legal alongside it. -field and -step address entries of a .frazd dataset
// archive.
func (f *flags) runDecompress(dtype container.DType, out io.Writer) error {
	allowed := map[string]bool{"decompress": true, "out": true, "verify": true, "field": true, "step": true}
	if f.verify {
		for _, name := range []string{"in", "dims", "dataset", "field", "timestep", "scale", "dtype"} {
			allowed[name] = true
		}
	}
	var extra []string
	f.set.Visit(func(fl *flag.Flag) {
		if !allowed[fl.Name] {
			extra = append(extra, "-"+fl.Name)
		}
	})
	if len(extra) > 0 {
		return fmt.Errorf("-decompress reads the codec, bound, and shape from the container header; remove %s", strings.Join(extra, ", "))
	}
	// -dtype is cross-checked against the archive: the header is
	// authoritative, so a contradictory flag is a user error, not a
	// conversion request.
	wantDType := ""
	if f.wasSet("dtype") {
		wantDType = dtype.String()
	}
	if f.decompress != "-" && isDatasetArchive(f.decompress) {
		return f.runDatasetDecompress(wantDType, out)
	}
	if f.wasSet("step") {
		return fmt.Errorf("-step addresses entries of a .frazd dataset archive; %s is a single-field container", f.decompress)
	}

	// A .fraz container: every parameter needed — codec, bound, shape — is
	// read from its header, so the only input is the file itself.
	var r io.Reader = stdin
	name := "<stdin>"
	if f.decompress != "-" {
		file, err := os.Open(f.decompress)
		if err != nil {
			return err
		}
		defer file.Close()
		r, name = file, f.decompress
	}
	res, err := fraz.DecompressFull(context.Background(), r)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return f.finishDecompress(res, name, fmt.Sprintf("container:        %s (.fraz v%d ", name, res.Version), wantDType, out)
}

// finishDecompress is the tail both decompression paths share once a field
// is in memory: the -dtype cross-check, the report (headline is the opening
// of its first line, up to where the header facts go), -out, and -verify
// against the reference field the input flags name.
func (f *flags) finishDecompress(res *fraz.DecompressResult, what, headline, wantDType string, out io.Writer) error {
	if wantDType != "" && wantDType != res.DType {
		return fmt.Errorf("%s holds %s data, but -dtype %s was requested; the header is authoritative, so drop the flag", what, res.DType, wantDType)
	}
	shape := grid.Dims(res.Shape)
	fmt.Fprintf(out, "%scodec=%s dtype=%s shape=%s bound=%g ratio=%.2f)\n", headline, res.Codec, res.DType, shape, res.ErrorBound, res.Ratio)
	if res.Version == 2 {
		fmt.Fprintf(out, "blocks:           %d (independently verified and decoded in parallel)\n", res.Blocks)
	}
	if res.Objective != nil {
		fmt.Fprintf(out, "objective:        %s target %g (±%g), achieved %.6g at seal time\n",
			res.Objective.Name, res.Objective.Target, res.Objective.Tolerance, res.Objective.Achieved)
	}
	values, elemSize := decodedValues(res)
	fmt.Fprintf(out, "reconstructed:    %d values (%s %s, %.2f MB)\n", values, shape, res.DType, float64(elemSize*values)/1e6)
	if ci, ok := fraz.LookupCodec(res.Codec); ok {
		switch {
		case ci.Lossless:
			fmt.Fprintf(out, "error guarantee:  lossless (bit-exact reconstruction)\n")
		case ci.ErrorBounded:
			fmt.Fprintf(out, "error guarantee:  %s <= %g\n", ci.BoundName, res.ErrorBound)
		}
	}
	switch {
	case f.out == "-":
		if _, err := writeRawTo(stdout, res.Data, res.Data64); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %d bytes to <stdout>\n", elemSize*values)
	case f.out != "":
		var werr error
		if res.Data64 != nil {
			werr = dataset.WriteRaw(f.out, res.Data64)
		} else {
			werr = dataset.WriteRaw(f.out, res.Data)
		}
		if werr != nil {
			return werr
		}
		fmt.Fprintf(out, "wrote %d bytes to %s\n", elemSize*values, f.out)
	}
	if f.verify {
		return runVerify(res, f.source, out)
	}
	return nil
}

// publish runs write on the destination path names: nothing for "" (the
// container is still produced — compression is the point of the tuning
// report — but discarded), standard output for "-", and otherwise a
// temporary file beside path that is renamed over it only once write and the
// close have succeeded, so a failed run never truncates or deletes an
// archive already at that path.
func publish(path string, write func(io.Writer) error) error {
	switch path {
	case "":
		return write(io.Discard)
	case "-":
		return write(stdout)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	// CreateTemp makes the file 0600; restore the 0644 a direct create would
	// have produced so the published archive stays readable by consumers
	// other than its owner.
	if err = tmp.Chmod(0o644); err == nil {
		err = write(tmp)
	}
	// Close before declaring success so write-back errors surface.
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// runCompress is the single-field mode: tune, seal, report.
func (f *flags) runCompress(wide bool, opts []fraz.Option, targetDesc string, out io.Writer) error {
	field, err := f.source.load(wide)
	if err != nil {
		return err
	}
	client, err := fraz.New(f.compressor, opts...)
	if err != nil {
		return err
	}
	printTuningHeader(out, field, client.Codec(), targetDesc)
	var res *fraz.CompressResult
	err = publish(f.out, func(w io.Writer) (err error) {
		res, err = field.compress(context.Background(), client, w)
		return err
	})
	var infeasible *fraz.InfeasibleError
	if errors.As(err, &infeasible) {
		// Report how close the search got and exit non-zero: an archive
		// that misses its contract must not look like success to scripts.
		fmt.Fprintf(out, "recommended bound: %g (closest observed)\n", infeasible.ErrorBound)
		if infeasible.Objective != "" && infeasible.Objective != "ratio" {
			fmt.Fprintf(out, "achieved %s:  %.4g (want %g)\n", infeasible.Objective, infeasible.ClosestValue, infeasible.Target)
		}
		fmt.Fprintf(out, "achieved ratio:   %.2f\n", infeasible.ClosestRatio)
		fmt.Fprintf(out, "feasible:         false\n")
		printInfeasibleNote(out)
		return err
	}
	if err != nil {
		return err
	}

	if res.Blocks > 1 {
		fmt.Fprintf(out, "blocks:           %d (tuned on sampled block %d)\n", res.Blocks, res.SampleBlock)
		fmt.Fprintf(out, "recommended bound: %g\n", res.ErrorBound)
		fmt.Fprintf(out, "achieved ratio:   %.2f whole-field (%.2f on the sampled block)\n", res.Ratio, res.SampleRatio)
	} else {
		fmt.Fprintf(out, "recommended bound: %g\n", res.ErrorBound)
		fmt.Fprintf(out, "achieved ratio:   %.2f (compressed %.2f MB)\n", res.Ratio, float64(res.BytesWritten)/1e6)
	}
	if res.Objective != "ratio" {
		fmt.Fprintf(out, "achieved %s:%s%.4g (target %g, recorded in the container header)\n",
			res.Objective, strings.Repeat(" ", max(1, 9-len(res.Objective))), res.AchievedValue, res.Target)
	}
	fmt.Fprintf(out, "feasible:         true\n")
	fmt.Fprintf(out, "evaluations:      %d in %v (%s)\n", res.Evaluations, res.Elapsed,
		report.Savings(res.CacheHits, res.Evaluations-res.CacheHits))
	if res.Direct {
		fmt.Fprintf(out, "direct:           fixed-rate codec satisfied the ratio target arithmetically (no search)\n")
	}
	if f.out != "" {
		dest := f.out
		if dest == "-" {
			dest = "<stdout>"
		}
		fmt.Fprintf(out, "wrote %d bytes to %s (codec=%s bound=%g ratio=%.2f, %d blocks)\n",
			res.BytesWritten, dest, res.Codec, res.ErrorBound, res.Ratio, res.Blocks)
	}
	return nil
}

// selectTarget maps the mutually exclusive target flags onto one objective
// option and a human-readable description of the request.
func (f *flags) selectTarget() (fraz.Option, string, error) {
	type candidate struct {
		flag string
		set  bool
		opt  fraz.Option
		desc string
	}
	candidates := []candidate{
		{"psnr", f.wasSet("psnr"), fraz.TargetPSNR(f.psnr), fmt.Sprintf("PSNR %.2f dB", f.psnr)},
		{"ssim", f.wasSet("ssim"), fraz.TargetSSIM(f.ssim), fmt.Sprintf("SSIM %.4f", f.ssim)},
		{"target-max-error", f.wasSet("target-max-error"), fraz.TargetMaxError(f.maxErrTgt), fmt.Sprintf("max error %g", f.maxErrTgt)},
	}
	var chosen []candidate
	for _, c := range candidates {
		if c.set {
			chosen = append(chosen, c)
		}
	}
	if len(chosen) > 1 || (len(chosen) == 1 && f.wasSet("ratio")) {
		var names []string
		if f.wasSet("ratio") {
			names = append(names, "-ratio")
		}
		for _, c := range chosen {
			names = append(names, "-"+c.flag)
		}
		return nil, "", fmt.Errorf("pick one tuning target; got %s", strings.Join(names, ", "))
	}
	if len(chosen) == 1 {
		return chosen[0].opt, chosen[0].desc, nil
	}
	return fraz.Ratio(f.ratio), fmt.Sprintf("ratio %.2f", f.ratio), nil
}

// printTuningHeader writes the report lines shared by the monolithic and
// blocked compression paths.
func printTuningHeader(out io.Writer, f inputField, ci fraz.CodecInfo, targetDesc string) {
	values := f.values()
	fmt.Fprintf(out, "input:            %s (%s %s, %d values, %.2f MB)\n", f.label, f.shape, f.dtype(), values, float64(f.elemSize()*values)/1e6)
	fmt.Fprintf(out, "compressor:       %s (%s)\n", ci.Name, ci.BoundName)
	fmt.Fprintf(out, "target:           %s\n", targetDesc)
}

// printInfeasibleNote explains an out-of-band result and how to remedy it.
func printInfeasibleNote(out io.Writer) {
	fmt.Fprintf(out, "note: the target was not reachable within the error-bound range;\n")
	fmt.Fprintf(out, "      the closest observed configuration is reported. Consider relaxing\n")
	fmt.Fprintf(out, "      -tolerance, raising -max-error, or switching -compressor.\n")
}

// inputField is a loaded field at either precision: exactly one of f32 and
// f64 is non-nil, mirroring the dtype tag a .fraz container records.
type inputField struct {
	f32   []float32
	f64   []float64
	shape grid.Dims
	label string
}

func (f inputField) values() int {
	if f.f64 != nil {
		return len(f.f64)
	}
	return len(f.f32)
}

func (f inputField) elemSize() int {
	if f.f64 != nil {
		return 8
	}
	return 4
}

func (f inputField) dtype() string {
	if f.f64 != nil {
		return "float64"
	}
	return "float32"
}

// compress tunes and seals the field through the client at its own width.
func (f inputField) compress(ctx context.Context, client *fraz.Client, w io.Writer) (*fraz.CompressResult, error) {
	if f.f64 != nil {
		return client.Compress64(ctx, w, f.f64, []int(f.shape))
	}
	return client.Compress(ctx, w, f.f32, []int(f.shape))
}

// runVerify recomputes the archive's recorded objective and fails (non-zero
// exit through main) if the re-measured value misses the stored band. An
// archive without an objective extension promised only its ratio, which is
// re-derived from the payload and field sizes.
func runVerify(res *fraz.DecompressResult, ref source, out io.Writer) error {
	values, elemSize := decodedValues(res)
	if res.Objective == nil {
		// Pre-extension (or plain fixed-ratio) archive: the promise is the
		// recorded ratio; recompute it from the actual sizes.
		actual := float64(elemSize*values) / float64(res.CompressedBytes)
		fmt.Fprintf(out, "verify:           ratio %.4f recorded, %.4f recomputed from sizes\n", res.Ratio, actual)
		if res.Ratio <= 0 || actual/res.Ratio < 0.99 || actual/res.Ratio > 1.01 {
			return fmt.Errorf("verify failed: recorded ratio %.4f, recomputed %.4f", res.Ratio, actual)
		}
		fmt.Fprintf(out, "verify:           OK\n")
		return nil
	}
	rec := *res.Objective
	obj, err := fraz.ObjectiveByName(rec.Name, rec.Target)
	if err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	if !ref.provided() {
		return fmt.Errorf("verify: re-measuring %s needs the original field; pass -in or -dataset/-field alongside -verify", rec.Name)
	}
	orig, err := ref.load(res.Data64 != nil)
	if err != nil {
		return fmt.Errorf("verify: loading reference: %w", err)
	}
	if !orig.shape.Equal(grid.Dims(res.Shape)) {
		return fmt.Errorf("verify: reference %s has shape %s, archive holds %s", orig.label, orig.shape, grid.Dims(res.Shape))
	}
	var measured float64
	if res.Data64 != nil {
		measured, err = obj.Measure64(orig.f64, res.Data64, res.Shape, res.CompressedBytes)
	} else {
		measured, err = obj.Measure(orig.f32, res.Data, res.Shape, res.CompressedBytes)
	}
	if err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	fmt.Fprintf(out, "verify:           %s measured %.6g against %s (band %g ± %g)\n",
		rec.Name, measured, orig.label, rec.Target, rec.Tolerance)
	if !rec.InBand(measured) {
		return fmt.Errorf("verify failed: %s %.6g outside the promised band %g ± %g",
			rec.Name, measured, rec.Target, rec.Tolerance)
	}
	fmt.Fprintf(out, "verify:           OK\n")
	return nil
}

// decodedValues reports the value count and element size of a decompressed
// archive, whichever width it holds.
func decodedValues(res *fraz.DecompressResult) (values, elemSize int) {
	if res.Data64 != nil {
		return len(res.Data64), 8
	}
	return len(res.Data), 4
}

// load loads the field at the requested width: raw files are parsed with the
// matching element size, synthetic datasets generate natively at either
// precision.
func (src source) load(wide bool) (inputField, error) {
	switch {
	case src.in == "-":
		return stdinField(src.dims, wide)
	case src.in != "":
		shape, err := grid.ParseDims(src.dims)
		if err != nil {
			return inputField{}, fmt.Errorf("-dims (required with -in): %w", err)
		}
		f := inputField{shape: shape, label: src.in}
		if wide {
			f.f64, err = dataset.ReadRaw[float64](src.in, shape)
		} else {
			f.f32, err = dataset.ReadRaw[float32](src.in, shape)
		}
		if err != nil {
			return inputField{}, err
		}
		return f, nil
	case src.dataset != "":
		if src.field == "" {
			return inputField{}, fmt.Errorf("-field is required with -dataset")
		}
		scale, err := parseScale(src.scale)
		if err != nil {
			return inputField{}, err
		}
		d, err := dataset.New(src.dataset, scale)
		if err != nil {
			return inputField{}, err
		}
		f := inputField{label: fmt.Sprintf("%s/%s t=%d", src.dataset, src.field, src.timeStep)}
		if wide {
			f.f64, f.shape, err = d.Generate64(src.field, src.timeStep)
		} else {
			f.f32, f.shape, err = d.Generate(src.field, src.timeStep)
		}
		if err != nil {
			return inputField{}, err
		}
		return f, nil
	default:
		return inputField{}, fmt.Errorf("either -in or -dataset must be provided")
	}
}

func parseScale(s string) (dataset.Scale, error) {
	switch strings.ToLower(s) {
	case "tiny":
		return dataset.ScaleTiny, nil
	case "small", "":
		return dataset.ScaleSmall, nil
	case "medium":
		return dataset.ScaleMedium, nil
	default:
		return 0, fmt.Errorf("unknown scale %q (want tiny, small, or medium)", s)
	}
}
