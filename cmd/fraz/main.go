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
	"strconv"
	"strings"

	"fraz"
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

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("fraz", flag.ContinueOnError)
	var (
		decompress = fs.String("decompress", "", "decompress this .fraz container (codec, bound, and shape come from its header)")
		inPath     = fs.String("in", "", "raw little-endian float input file (element width set by -dtype)")
		dims       = fs.String("dims", "", "input dimensions, slowest first, e.g. 100x500x500 (required with -in)")
		dtypeName  = fs.String("dtype", "float32", "element type of the input field: float32 or float64 (raw -in files and -dataset generation)")
		dsName     = fs.String("dataset", "", "built-in synthetic dataset name (Hurricane, HACC, CESM, EXAALT, NYX)")
		fieldName  = fs.String("field", "", "field name within the dataset")
		timeStep   = fs.Int("timestep", 0, "time-step within the dataset")
		scaleName  = fs.String("scale", "small", "synthetic dataset scale: tiny, small, medium")
		compressor = fs.String("compressor", fraz.DefaultCodec, "compressor to tune: "+strings.Join(codecNames(), ", ")+", or "+fraz.CodecAuto)
		auto       = fs.Bool("auto", false, "race every capable codec per field and seal with the winner (shorthand for -compressor "+fraz.CodecAuto+")")
		fieldsSpec = fs.String("fields", "", "compress several fields into one .frazd dataset archive: name=path,... (raw files, shared -dims) or name,... with -dataset")
		step       = fs.Int("step", 0, "with -decompress on a .frazd archive: the time step of -field to extract")
		ratio      = fs.Float64("ratio", 10, "target compression ratio")
		psnr       = fs.Float64("psnr", 0, "tune to this reconstruction PSNR in dB instead of a ratio")
		ssim       = fs.Float64("ssim", 0, "tune to this mid-slice SSIM instead of a ratio")
		maxErrTgt  = fs.Float64("target-max-error", 0, "tune to this measured maximum pointwise error instead of a ratio")
		tolerance  = fs.Float64("tolerance", 0.1, "acceptance half-width: fractional for -ratio/-psnr, absolute for -ssim/-target-max-error")
		verify     = fs.Bool("verify", false, "with -decompress: recompute the archive's recorded objective and exit non-zero if it misses the stored band (quality objectives need the original field via -in or -dataset)")
		maxError   = fs.Float64("max-error", 0, "maximum allowed compression error U (0 = value range of the data)")
		regions    = fs.Int("regions", 12, "number of overlapping error-bound search regions")
		blocksN    = fs.Int("blocks", 0, "split the field into N slowest-axis blocks, tune on one sampled block, and compress the blocks in parallel into a blocked (v2) container (0 or 1 = monolithic)")
		workers    = fs.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
		seed       = fs.Int64("seed", 1, "search seed")
		outPath    = fs.String("out", "", "compress: write a .fraz container here; decompress: write raw float32 here")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// With -out - the data stream owns standard output, so the report moves
	// to standard error to keep pipelines clean.
	if *outPath == "-" {
		out = stderr
	}

	if *decompress != "" {
		// Every decompression parameter comes from the container header, so
		// any other flag the user set would be silently ignored — reject it
		// instead of letting them believe it took effect. -verify is the
		// exception: it re-measures the archive's promise, and quality
		// promises need the original field, so the input flags are legal
		// alongside it. -field and -step address entries of a .frazd dataset
		// archive.
		allowed := map[string]bool{"decompress": true, "out": true, "verify": true, "field": true, "step": true}
		if *verify {
			for _, name := range []string{"in", "dims", "dataset", "field", "timestep", "scale", "dtype"} {
				allowed[name] = true
			}
		}
		var extra []string
		fs.Visit(func(f *flag.Flag) {
			if !allowed[f.Name] {
				extra = append(extra, "-"+f.Name)
			}
		})
		if len(extra) > 0 {
			return fmt.Errorf("-decompress reads the codec, bound, and shape from the container header; remove %s", strings.Join(extra, ", "))
		}
		// -dtype is validated even here, and cross-checked against the
		// archive: the header is authoritative, so a contradictory flag is a
		// user error, not a conversion request.
		wide, err := parseDType(*dtypeName)
		if err != nil {
			return err
		}
		var wantDType string
		if flagWasSet(fs, "dtype") {
			wantDType = "float32"
			if wide {
				wantDType = "float64"
			}
		}
		ref := refLoader{in: *inPath, dims: *dims, dataset: *dsName, field: *fieldName, timeStep: *timeStep, scale: *scaleName}
		if *decompress != "-" && isDatasetArchive(*decompress) {
			return runDatasetDecompress(*decompress, *fieldName, *step, *outPath, *verify, wantDType, ref, out)
		}
		if flagWasSet(fs, "step") {
			return fmt.Errorf("-step addresses entries of a .frazd dataset archive; %s is a single-field container", *decompress)
		}
		return runDecompress(*decompress, *outPath, *verify, wantDType, ref, out)
	}

	// -auto is shorthand for -compressor auto; naming both a concrete codec
	// and the race is a contradiction, not a preference.
	if *auto {
		if flagWasSet(fs, "compressor") && *compressor != fraz.CodecAuto {
			return fmt.Errorf("-auto races the codecs, -compressor %s names one; pick one of the two", *compressor)
		}
		*compressor = fraz.CodecAuto
	}

	target, targetDesc, err := selectTarget(fs, *ratio, *psnr, *ssim, *maxErrTgt)
	if err != nil {
		return err
	}

	blocks := *blocksN
	if blocks <= 1 {
		blocks = 1 // 0 and 1 both mean a monolithic (v1) container
	}
	opts := []fraz.Option{
		target,
		fraz.MaxError(*maxError),
		fraz.Regions(*regions),
		fraz.Blocks(blocks),
		fraz.Workers(*workers),
		fraz.Seed(*seed),
	}
	if flagWasSet(fs, "tolerance") {
		opts = append(opts, fraz.Tolerance(*tolerance))
	}

	wide, err := parseDType(*dtypeName)
	if err != nil {
		return err
	}

	if *fieldsSpec != "" {
		// Multi-field mode: every named field goes into one dataset archive.
		// The codec policy defaults to the race unless one was named.
		codec := *compressor
		if !*auto && !flagWasSet(fs, "compressor") {
			codec = fraz.CodecAuto
		}
		fields, err := parseFieldsSpec(*fieldsSpec, *dims, *dsName, *timeStep, *scaleName, wide)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "target:           %s\n", targetDesc)
		return runCompressFields(fields, codec, opts, *outPath, out)
	}

	field, err := loadField(*inPath, *dims, *dsName, *fieldName, *timeStep, *scaleName, wide)
	if err != nil {
		return err
	}
	client, err := fraz.New(*compressor, opts...)
	if err != nil {
		return err
	}

	// Without -out the container is still produced (compression is the
	// point of the tuning report) but discarded. With -out, the container
	// streams into a temporary file that is renamed over the destination
	// only on success, so a failed run never truncates or deletes an
	// archive already at that path.
	var w io.Writer = io.Discard
	var tmp *os.File
	if *outPath == "-" {
		w = stdout
	} else if *outPath != "" {
		tmp, err = os.CreateTemp(filepath.Dir(*outPath), filepath.Base(*outPath)+".tmp-*")
		if err != nil {
			return err
		}
		// CreateTemp makes the file 0600; restore the 0644 a direct create
		// would have produced so the published archive stays readable by
		// consumers other than its owner.
		if err := tmp.Chmod(0o644); err != nil {
			return err
		}
		defer func() {
			if tmp != nil {
				tmp.Close()
				os.Remove(tmp.Name())
			}
		}()
		w = tmp
	}

	printTuningHeader(out, field, client.Codec(), targetDesc)
	res, err := field.compress(context.Background(), client, w)
	var infeasible *fraz.InfeasibleError
	if errors.As(err, &infeasible) {
		// Report how close the search got and exit non-zero: an archive
		// that misses its contract must not look like success to scripts.
		// The deferred cleanup discards the temporary file.
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
	if tmp != nil {
		// Close before declaring success so write-back errors surface, then
		// publish the finished archive atomically.
		if err := tmp.Close(); err != nil {
			os.Remove(tmp.Name())
			tmp = nil
			return err
		}
		if err := os.Rename(tmp.Name(), *outPath); err != nil {
			os.Remove(tmp.Name())
			tmp = nil
			return err
		}
		tmp = nil
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
	if *outPath != "" {
		dest := *outPath
		if dest == "-" {
			dest = "<stdout>"
		}
		fmt.Fprintf(out, "wrote %d bytes to %s (codec=%s bound=%g ratio=%.2f, %d blocks)\n",
			res.BytesWritten, dest, res.Codec, res.ErrorBound, res.Ratio, res.Blocks)
	}
	return nil
}

// flagWasSet reports whether the user passed the named flag explicitly.
func flagWasSet(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// selectTarget maps the mutually exclusive target flags onto one objective
// option and a human-readable description of the request.
func selectTarget(fs *flag.FlagSet, ratio, psnr, ssim, maxErrTgt float64) (fraz.Option, string, error) {
	type candidate struct {
		flag string
		set  bool
		opt  fraz.Option
		desc string
	}
	candidates := []candidate{
		{"psnr", flagWasSet(fs, "psnr"), fraz.TargetPSNR(psnr), fmt.Sprintf("PSNR %.2f dB", psnr)},
		{"ssim", flagWasSet(fs, "ssim"), fraz.TargetSSIM(ssim), fmt.Sprintf("SSIM %.4f", ssim)},
		{"target-max-error", flagWasSet(fs, "target-max-error"), fraz.TargetMaxError(maxErrTgt), fmt.Sprintf("max error %g", maxErrTgt)},
	}
	var chosen []candidate
	for _, c := range candidates {
		if c.set {
			chosen = append(chosen, c)
		}
	}
	if len(chosen) > 1 || (len(chosen) == 1 && flagWasSet(fs, "ratio")) {
		var names []string
		if flagWasSet(fs, "ratio") {
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
	return fraz.Ratio(ratio), fmt.Sprintf("ratio %.2f", ratio), nil
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

// parseDType maps the -dtype flag onto the container's element widths.
func parseDType(s string) (wide bool, err error) {
	switch strings.ToLower(s) {
	case "float32", "f32", "":
		return false, nil
	case "float64", "f64":
		return true, nil
	default:
		return false, fmt.Errorf("unknown dtype %q (want float32 or float64)", s)
	}
}

// refLoader carries the input flags a -verify run uses to load the
// reference (original) field at the width the archive records.
type refLoader struct {
	in, dims, dataset, field string
	timeStep                 int
	scale                    string
}

func (r refLoader) provided() bool { return r.in != "" || r.dataset != "" }

func (r refLoader) load(wide bool) (inputField, error) {
	return loadField(r.in, r.dims, r.dataset, r.field, r.timeStep, r.scale, wide)
}

// runDecompress reverses a .fraz container: every parameter needed — codec,
// bound, shape — is read from the container header, so the only inputs are
// the file itself, an optional raw float32 output path, and (with -verify)
// the reference field the archive's promise is re-measured against.
func runDecompress(inPath, outPath string, verify bool, wantDType string, ref refLoader, out io.Writer) error {
	var r io.Reader
	if inPath == "-" {
		r = stdin
		inPath = "<stdin>"
	} else {
		f, err := os.Open(inPath)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	res, err := fraz.DecompressFull(context.Background(), r)
	if err != nil {
		return fmt.Errorf("%s: %w", inPath, err)
	}
	if wantDType != "" && wantDType != res.DType {
		return fmt.Errorf("%s holds %s data, but -dtype %s was requested; the header is authoritative, so drop the flag", inPath, res.DType, wantDType)
	}
	shape := grid.Dims(res.Shape)
	fmt.Fprintf(out, "container:        %s (.fraz v%d codec=%s dtype=%s shape=%s bound=%g ratio=%.2f)\n",
		inPath, res.Version, res.Codec, res.DType, shape, res.ErrorBound, res.Ratio)
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
	case outPath == "-":
		if _, err := writeRawTo(stdout, res.Data, res.Data64); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %d bytes to <stdout>\n", elemSize*values)
	case outPath != "":
		var werr error
		if res.Data64 != nil {
			werr = dataset.WriteRaw(outPath, res.Data64)
		} else {
			werr = dataset.WriteRaw(outPath, res.Data)
		}
		if werr != nil {
			return werr
		}
		fmt.Fprintf(out, "wrote %d bytes to %s\n", elemSize*values, outPath)
	}
	if verify {
		return runVerify(res, ref, out)
	}
	return nil
}

// runVerify recomputes the archive's recorded objective and fails (non-zero
// exit through main) if the re-measured value misses the stored band. An
// archive without an objective extension promised only its ratio, which is
// re-derived from the payload and field sizes.
func runVerify(res *fraz.DecompressResult, ref refLoader, out io.Writer) error {
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

// loadField loads the input field at the requested width: raw files are
// parsed with the matching element size, synthetic datasets generate
// natively at either precision.
func loadField(inPath, dims, dsName, fieldName string, timeStep int, scaleName string, wide bool) (inputField, error) {
	switch {
	case inPath == "-":
		return stdinField(dims, wide)
	case inPath != "":
		shape, err := parseDims(dims)
		if err != nil {
			return inputField{}, err
		}
		f := inputField{shape: shape, label: inPath}
		if wide {
			f.f64, err = dataset.ReadRaw[float64](inPath, shape)
		} else {
			f.f32, err = dataset.ReadRaw[float32](inPath, shape)
		}
		if err != nil {
			return inputField{}, err
		}
		return f, nil
	case dsName != "":
		if fieldName == "" {
			return inputField{}, fmt.Errorf("-field is required with -dataset")
		}
		scale, err := parseScale(scaleName)
		if err != nil {
			return inputField{}, err
		}
		d, err := dataset.New(dsName, scale)
		if err != nil {
			return inputField{}, err
		}
		f := inputField{label: fmt.Sprintf("%s/%s t=%d", dsName, fieldName, timeStep)}
		if wide {
			f.f64, f.shape, err = d.Generate64(fieldName, timeStep)
		} else {
			f.f32, f.shape, err = d.Generate(fieldName, timeStep)
		}
		if err != nil {
			return inputField{}, err
		}
		return f, nil
	default:
		return inputField{}, fmt.Errorf("either -in or -dataset must be provided")
	}
}

func parseDims(s string) (grid.Dims, error) {
	if s == "" {
		return nil, fmt.Errorf("-dims is required with -in")
	}
	parts := strings.Split(s, "x")
	extents := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad dimension %q: %w", p, err)
		}
		extents = append(extents, v)
	}
	return grid.NewDims(extents...)
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
