package fraz_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"strings"
	"testing"

	"fraz"
)

// pinCell is one seal of the small fixed field (testField, 16×12×10): a
// registered codec, an objective, an element width and a block count.
type pinCell struct {
	codec  fraz.CodecInfo
	obj    fraz.Objective
	bits   int
	blocks int
}

func (p pinCell) String() string {
	return fmt.Sprintf("%s/%s/f%d/%d", p.codec.Name, p.obj.Name(), p.bits, p.blocks)
}

// pinCells is every registered codec × {ratio, psnr, ssim, max-error} ×
// {float32, float64} × {1, 4} blocks.
func pinCells() []pinCell {
	objectives := []fraz.Objective{
		fraz.FixedRatio(6).WithTolerance(0.2),
		fraz.FixedPSNR(60),
		fraz.FixedSSIM(0.99),
		fraz.FixedMaxError(0.05),
	}
	var out []pinCell
	for _, ci := range fraz.Codecs() {
		for _, obj := range objectives {
			for _, bits := range []int{32, 64} {
				for _, blocks := range []int{1, 4} {
					out = append(out, pinCell{ci, obj, bits, blocks})
				}
			}
		}
	}
	return out
}

// seal compresses the cell's field on one worker at seed 1 and returns the
// client (for its cache counters), the result and the archive. A cell the
// client refuses to configure returns ok = false.
func (p pinCell) seal(t *testing.T) (c *fraz.Client, res *fraz.CompressResult, archive []byte, ok bool, err error) {
	t.Helper()
	c, err = fraz.New(p.codec.Name, fraz.Target(p.obj), fraz.Blocks(p.blocks), fraz.Workers(1), fraz.Seed(1))
	if errors.Is(err, fraz.ErrUnsupported) {
		return nil, nil, nil, false, nil
	}
	if err != nil {
		t.Fatalf("%s: %v", p, err)
	}
	var buf bytes.Buffer
	data32, shape := testField()
	if p.bits == 64 {
		data64, _ := testField64()
		res, err = c.Compress64(context.Background(), &buf, data64, shape)
	} else {
		res, err = c.Compress(context.Background(), &buf, data32, shape)
	}
	return c, res, buf.Bytes(), true, err
}

// TestArchiveDigests pins what every cell of pinCells writes: the SHA-256 of
// the sealed .fraz and CompressResult.Evaluations, or, where the cell is
// infeasible, the closest value and bound the error carries and the
// evaluations the client's cache was asked for. A change to the tuner, the
// seal or a kernel that is meant to keep every archive is reviewable as
// "this table did not change"; one that is meant to change archives names
// the rows it changed (the failure log prints the table in source form).
func TestArchiveDigests(t *testing.T) {
	var regenerated strings.Builder
	failed, rows := false, 0
	for _, p := range pinCells() {
		c, res, archive, ok, err := p.seal(t)
		if !ok {
			continue
		}
		rows++
		var got archivePin
		var inf *fraz.InfeasibleError
		switch {
		case errors.As(err, &inf):
			stats := c.Stats()
			got = archivePin{fmt.Sprintf("infeasible %g at %g", inf.ClosestValue, inf.ErrorBound), int(stats.Hits + stats.Misses)}
		case err != nil:
			t.Fatalf("%s: %v", p, err)
		default:
			got = archivePin{fmt.Sprintf("%x", sha256.Sum256(archive)), res.Evaluations}
		}
		fmt.Fprintf(&regenerated, "\t%q: {%q, %d},\n", p.String(), got.digest, got.evaluations)
		if want, pinned := archivePins[p.String()]; !pinned {
			failed = true
			t.Errorf("%s: no pinned digest", p)
		} else if got != want {
			failed = true
			t.Errorf("%s: %s after %d evaluations, pinned %s after %d", p, got.digest, got.evaluations, want.digest, want.evaluations)
		}
	}
	if rows != len(archivePins) {
		failed = true
		t.Errorf("%d rows pinned, %d produced: a codec left the registry or a row is stale", len(archivePins), rows)
	}
	if failed {
		t.Logf("table as this build produces it:\n%s", regenerated.String())
	}
}

// archivePin is one row of archivePins.
type archivePin struct {
	digest      string
	evaluations int
}

var archivePins = map[string]archivePin{
	"flate:lossless/ratio/f32/1":     {"infeasible 1.1376092430751 at 1e-12", 288},
	"flate:lossless/ratio/f32/4":     {"infeasible 1.054945054945055 at 1e-12", 288},
	"flate:lossless/ratio/f64/1":     {"infeasible 1.4463276836158192 at 1e-12", 288},
	"flate:lossless/ratio/f64/4":     {"infeasible 1.400437636761488 at 1e-12", 288},
	"flate:lossless/psnr/f32/1":      {"infeasible +Inf at 1e-12", 288},
	"flate:lossless/psnr/f32/4":      {"infeasible +Inf at 1e-12", 288},
	"flate:lossless/psnr/f64/1":      {"infeasible +Inf at 1e-12", 288},
	"flate:lossless/psnr/f64/4":      {"infeasible +Inf at 1e-12", 288},
	"flate:lossless/ssim/f32/1":      {"53d19ac3a1d51b616ede38f60d014068cff2b31691c228b0703162a142ff49d3", 1},
	"flate:lossless/ssim/f32/4":      {"53d19ac3a1d51b616ede38f60d014068cff2b31691c228b0703162a142ff49d3", 1},
	"flate:lossless/ssim/f64/1":      {"82185805a4efe8c173613ff11f6bda347dc4caf276750fdc0c98fbb33f1abc3b", 1},
	"flate:lossless/ssim/f64/4":      {"82185805a4efe8c173613ff11f6bda347dc4caf276750fdc0c98fbb33f1abc3b", 1},
	"flate:lossless/max-error/f32/1": {"infeasible 0 at 1e-12", 288},
	"flate:lossless/max-error/f32/4": {"infeasible 0 at 1e-12", 288},
	"flate:lossless/max-error/f64/1": {"infeasible 0 at 1e-12", 288},
	"flate:lossless/max-error/f64/4": {"infeasible 0 at 1e-12", 288},
	"frsz:rate/ratio/f32/1":          {"eca4988b1e648bed34df27cc560c1385fb9c8470e0060833614f22ebbf473ee1", 0},
	"frsz:rate/ratio/f32/4":          {"4322f9badc0ffaaf22a7cd0d2fdad8a31669b30cbc6af2c254557d29a957e316", 0},
	"frsz:rate/ratio/f64/1":          {"82a6c106d23eee9190d8baaa80d61177274a08a5c1239ddaa04bc43f06c283e0", 0},
	"frsz:rate/ratio/f64/4":          {"12685742b203d22fcf246e021e93c68abb948b375f6d80192170cd3827862909", 0},
	"frsz:rate/psnr/f32/1":           {"677d9bf8de0d6ecbebe0156fea6ee2864566c0fecdacb03b5da7897ecdacd2b9", 171},
	"frsz:rate/psnr/f32/4":           {"677d9bf8de0d6ecbebe0156fea6ee2864566c0fecdacb03b5da7897ecdacd2b9", 171},
	"frsz:rate/psnr/f64/1":           {"50905c6ba99c74770068d923a704865fe3f3a14aa99f61ad003e156605355581", 171},
	"frsz:rate/psnr/f64/4":           {"50905c6ba99c74770068d923a704865fe3f3a14aa99f61ad003e156605355581", 171},
	"frsz:rate/ssim/f32/1":           {"198dfea2d4d5583491afad1595cb44db73d511acf77b7e0ac02cd266d0bb941e", 98},
	"frsz:rate/ssim/f32/4":           {"198dfea2d4d5583491afad1595cb44db73d511acf77b7e0ac02cd266d0bb941e", 98},
	"frsz:rate/ssim/f64/1":           {"0f0cc1db7e0fb2c0148adaaf8b48d1231cf31148a9da16ba59fd4ac9e14238d4", 98},
	"frsz:rate/ssim/f64/4":           {"0f0cc1db7e0fb2c0148adaaf8b48d1231cf31148a9da16ba59fd4ac9e14238d4", 98},
	"frsz:rate/max-error/f32/1":      {"infeasible 0.062435150146484375 at 9", 288},
	"frsz:rate/max-error/f32/4":      {"infeasible 0.062435150146484375 at 9", 288},
	"frsz:rate/max-error/f64/1":      {"infeasible 0.062434791932261646 at 9", 288},
	"frsz:rate/max-error/f64/4":      {"infeasible 0.062434791932261646 at 9", 288},
	"mgard:abs/ratio/f32/1":          {"0d1812ae6e2fbe8a79ddeefdc99a2b19e51753bb22c7d68af40bfcbe1cb8e064", 1},
	"mgard:abs/ratio/f32/4":          {"c899c769bd9e5cd692ae6ff8d1f8ae95ee65efa159a89af33b009cc8d2156e21", 2},
	"mgard:abs/ratio/f64/1":          {"f72775b04b7eda7c2b86298f87d603ecc2373ead03d427b71068dfd5dd59212c", 2},
	"mgard:abs/ratio/f64/4":          {"67c9ec2172c73a0f0194024bc4ef1028b894f57c3b84d2da9166fa538019f868", 1},
	"mgard:abs/psnr/f32/1":           {"384b4b020a1af16ba6607a1d0642c47e8924e432524d1b981bd6b28ce52b0274", 2},
	"mgard:abs/psnr/f32/4":           {"384b4b020a1af16ba6607a1d0642c47e8924e432524d1b981bd6b28ce52b0274", 2},
	"mgard:abs/psnr/f64/1":           {"4e84476618e1366220be88ccf5998ba744e98182594dcdef86ea307e979ac5d7", 2},
	"mgard:abs/psnr/f64/4":           {"4e84476618e1366220be88ccf5998ba744e98182594dcdef86ea307e979ac5d7", 2},
	"mgard:abs/ssim/f32/1":           {"aa3bc6944a2dd19ec8aa946c0512bb2ba12ef0ade009dc5538437b93b1661b54", 1},
	"mgard:abs/ssim/f32/4":           {"aa3bc6944a2dd19ec8aa946c0512bb2ba12ef0ade009dc5538437b93b1661b54", 1},
	"mgard:abs/ssim/f64/1":           {"8bb839450c79aba62ab774ac69aed47de203d79b2abd1ebd5728ede50c33e325", 1},
	"mgard:abs/ssim/f64/4":           {"8bb839450c79aba62ab774ac69aed47de203d79b2abd1ebd5728ede50c33e325", 1},
	"mgard:abs/max-error/f32/1":      {"a8362e27297f6f9e8c3d93f259d10dd48c3bc3a64ca2a53d0b9693ef99cd5061", 6},
	"mgard:abs/max-error/f32/4":      {"a8362e27297f6f9e8c3d93f259d10dd48c3bc3a64ca2a53d0b9693ef99cd5061", 6},
	"mgard:abs/max-error/f64/1":      {"d0b3c3fca4721f19739bbe43582fb787b7bc5bcd22bc10b24b06a3a875872bc1", 6},
	"mgard:abs/max-error/f64/4":      {"d0b3c3fca4721f19739bbe43582fb787b7bc5bcd22bc10b24b06a3a875872bc1", 6},
	"mgard:l2/ratio/f32/1":           {"26e738ae4dcc37b67fa958fd5d9ef3e0c69bca14f27ddef9972a79423a5d3a59", 1},
	"mgard:l2/ratio/f32/4":           {"915c1d96fde3eb7898b91f4fe2fc27a7c9cc9049d5e897bdf978da88eda78a3c", 3},
	"mgard:l2/ratio/f64/1":           {"a03cf889ee479e6e5dbb5f643ba161da774523c1b635771cbb6bac0ed9996b0c", 5},
	"mgard:l2/ratio/f64/4":           {"e74bc5b93830eed79111a81defaea5a58868ebe1c247b7bd22845a9286b65290", 1},
	"mgard:l2/psnr/f32/1":            {"fbb4008e422adcb71489aa6b5ed6882dffa29a1b43ecbf97d65ddb0b10f4e511", 2},
	"mgard:l2/psnr/f32/4":            {"fbb4008e422adcb71489aa6b5ed6882dffa29a1b43ecbf97d65ddb0b10f4e511", 2},
	"mgard:l2/psnr/f64/1":            {"02755e645fd4f890b4b9dbd004d1ee5a0e4e7472d8d765d7fa3ef086ec578d82", 2},
	"mgard:l2/psnr/f64/4":            {"02755e645fd4f890b4b9dbd004d1ee5a0e4e7472d8d765d7fa3ef086ec578d82", 2},
	"mgard:l2/ssim/f32/1":            {"0bff8792b3c1e34c2ab1aab8cf4604254cc0b909102d9a9780e67b33822a05b6", 1},
	"mgard:l2/ssim/f32/4":            {"0bff8792b3c1e34c2ab1aab8cf4604254cc0b909102d9a9780e67b33822a05b6", 1},
	"mgard:l2/ssim/f64/1":            {"9295387bb5c71088ad5974e250d9e633906f10b9d8d3f9688d2d497f9045eeb4", 1},
	"mgard:l2/ssim/f64/4":            {"9295387bb5c71088ad5974e250d9e633906f10b9d8d3f9688d2d497f9045eeb4", 1},
	"mgard:l2/max-error/f32/1":       {"d589563fc367291f2928df5aaf5d6071cc8c645a3123834d8eab08ffca2b3c98", 8},
	"mgard:l2/max-error/f32/4":       {"d589563fc367291f2928df5aaf5d6071cc8c645a3123834d8eab08ffca2b3c98", 8},
	"mgard:l2/max-error/f64/1":       {"0ee616795de423482cc83e5520339e7bcd52d669597713253c7cf7c806b5b42b", 8},
	"mgard:l2/max-error/f64/4":       {"0ee616795de423482cc83e5520339e7bcd52d669597713253c7cf7c806b5b42b", 8},
	"sz:abs/ratio/f32/1":             {"638f96d1ddf15af7669408d384e0aaa127c0c46ae7012dd267ac2b1fcc64550f", 3},
	"sz:abs/ratio/f32/4":             {"d507c68a1cf4147122554c3d8eb313c3282c5de21fbb5378079146bb153c48c7", 1},
	"sz:abs/ratio/f64/1":             {"infeasible 9.48733786287832 at 3.247987478971481e-08", 291},
	"sz:abs/ratio/f64/4":             {"c496edb4d775190762feddf4d276a1c5147a5f15f0d48e49a920e2bca37b811f", 3},
	"sz:abs/psnr/f32/1":              {"41ef684ce37bccd9242c19344062c55a23025c4dceccddb3f48c44c1b7cb28ac", 1},
	"sz:abs/psnr/f32/4":              {"41ef684ce37bccd9242c19344062c55a23025c4dceccddb3f48c44c1b7cb28ac", 1},
	"sz:abs/psnr/f64/1":              {"3e7a34a51323bd1e6b46a24684671668eb630b6b9be02e44ab29aad59a16ff51", 1},
	"sz:abs/psnr/f64/4":              {"3e7a34a51323bd1e6b46a24684671668eb630b6b9be02e44ab29aad59a16ff51", 1},
	"sz:abs/ssim/f32/1":              {"bf9a26fc622bf33d2c9b392f882c1238c6adcab83c18c30c51f77ac334104a56", 1},
	"sz:abs/ssim/f32/4":              {"bf9a26fc622bf33d2c9b392f882c1238c6adcab83c18c30c51f77ac334104a56", 1},
	"sz:abs/ssim/f64/1":              {"26ff0d9b7913c41d806ac7ddd84e61de6949caa9a6ca64467780ef2f4a0be8b7", 1},
	"sz:abs/ssim/f64/4":              {"26ff0d9b7913c41d806ac7ddd84e61de6949caa9a6ca64467780ef2f4a0be8b7", 1},
	"sz:abs/max-error/f32/1":         {"ddea659b3b69d12fbaa1707bd6d1a82e45c9fd2fc824d00e2f8e2d503064e252", 1},
	"sz:abs/max-error/f32/4":         {"ddea659b3b69d12fbaa1707bd6d1a82e45c9fd2fc824d00e2f8e2d503064e252", 1},
	"sz:abs/max-error/f64/1":         {"906bf9fc10be9a98d952f5665daa5c7b6cea21a9ff71b6db7d6e90049f3a4987", 1},
	"sz:abs/max-error/f64/4":         {"906bf9fc10be9a98d952f5665daa5c7b6cea21a9ff71b6db7d6e90049f3a4987", 1},
	"sz:rel/ratio/f32/1":             {"e9cb7febc11ed62f35b90d951d730630f91632f1a47c12e36b1830e06dcf02e8", 3},
	"sz:rel/ratio/f32/4":             {"3557ca5795df959648cecb0dc7875dbdaf86e7c3f09729996e3199a2be841a8c", 1},
	"sz:rel/ratio/f64/1":             {"infeasible 9.48733786287832 at 9.968061931431293e-10", 291},
	"sz:rel/ratio/f64/4":             {"e3a670aa7416ac6743ede47a902c19e97508965ad87e9ace35980e54495ed057", 3},
	"sz:rel/psnr/f32/1":              {"f948006d4601f6c2e65fd65f296d7d63bf77c58b74fb52253bb15d788bfc492a", 2},
	"sz:rel/psnr/f32/4":              {"f948006d4601f6c2e65fd65f296d7d63bf77c58b74fb52253bb15d788bfc492a", 2},
	"sz:rel/psnr/f64/1":              {"73822abcb9027811373d4cd109c8231f39cf7c4475f32173f647352d9964cf1e", 2},
	"sz:rel/psnr/f64/4":              {"73822abcb9027811373d4cd109c8231f39cf7c4475f32173f647352d9964cf1e", 2},
	"sz:rel/ssim/f32/1":              {"dd3bf68d121201d57b638a1ccee86b886dd95aaefa477208213a04997a8c41f3", 1},
	"sz:rel/ssim/f32/4":              {"dd3bf68d121201d57b638a1ccee86b886dd95aaefa477208213a04997a8c41f3", 1},
	"sz:rel/ssim/f64/1":              {"dff4ed4e6c1a4aa6c44ba02ed6a2ac82a539749aa058644863ecf4b9720906bd", 1},
	"sz:rel/ssim/f64/4":              {"dff4ed4e6c1a4aa6c44ba02ed6a2ac82a539749aa058644863ecf4b9720906bd", 1},
	"sz:rel/max-error/f32/1":         {"1df8b0a8c9be8c882b43dcb4a0e32cb2881dae8b1f3d3639452e4201d5fd380d", 2},
	"sz:rel/max-error/f32/4":         {"1df8b0a8c9be8c882b43dcb4a0e32cb2881dae8b1f3d3639452e4201d5fd380d", 2},
	"sz:rel/max-error/f64/1":         {"2e306245276d583b38bf530d7b01361dff1aabd1c2308fb0b5338776ba5d3ccc", 2},
	"sz:rel/max-error/f64/4":         {"2e306245276d583b38bf530d7b01361dff1aabd1c2308fb0b5338776ba5d3ccc", 2},
	"szx:abs/ratio/f32/1":            {"49fee3f9fd4ffd9f4d7bf00ba0ffee13297393b26d517a49a615b8ea068ea120", 8},
	"szx:abs/ratio/f32/4":            {"bca71abcdf59fb2620b59d774137612d91af38a0e0fa4b5d11458a9fd722c333", 6},
	"szx:abs/ratio/f64/1":            {"8c7f78befc196e8816ff5a0d8611899cdb360478159cc06ced318f3be8ece912", 5},
	"szx:abs/ratio/f64/4":            {"19dde3c8288618dfa87abb80a7e046d0f537babd4a6f6ae1fd0fadef8b6d6b2a", 12},
	"szx:abs/psnr/f32/1":             {"eb39073077e47e8a69aeaf3a369c08cafddfbcf9e771c8d184d714205ef4e102", 3},
	"szx:abs/psnr/f32/4":             {"eb39073077e47e8a69aeaf3a369c08cafddfbcf9e771c8d184d714205ef4e102", 3},
	"szx:abs/psnr/f64/1":             {"5e7fad7581e907ea80c33d1d36a59acadb1f5f3a9390a5c6d3cce8b25040bb4c", 3},
	"szx:abs/psnr/f64/4":             {"5e7fad7581e907ea80c33d1d36a59acadb1f5f3a9390a5c6d3cce8b25040bb4c", 3},
	"szx:abs/ssim/f32/1":             {"9477045d577380b0b55d5d9530b9ce0f87f612ded076bd7047c9cdc85f51441a", 1},
	"szx:abs/ssim/f32/4":             {"9477045d577380b0b55d5d9530b9ce0f87f612ded076bd7047c9cdc85f51441a", 1},
	"szx:abs/ssim/f64/1":             {"c2a39ac32c88a45e77832a26609411c8b18154ac802a640a5208d08deb59ddd9", 1},
	"szx:abs/ssim/f64/4":             {"c2a39ac32c88a45e77832a26609411c8b18154ac802a640a5208d08deb59ddd9", 1},
	"szx:abs/max-error/f32/1":        {"infeasible 0.062087059020996094 at 0.146484375", 299},
	"szx:abs/max-error/f32/4":        {"infeasible 0.062087059020996094 at 0.146484375", 299},
	"szx:abs/max-error/f64/1":        {"infeasible 0.0038410419322616463 at 0.0537109375", 299},
	"szx:abs/max-error/f64/4":        {"infeasible 0.0038410419322616463 at 0.0537109375", 299},
	"zfp:accuracy/ratio/f32/1":       {"c2f00e08f6acf8269bb9916ac5b10d7e63bf40778d48317434f25a0dc07ffd40", 1},
	"zfp:accuracy/ratio/f32/4":       {"01f638061979f7dea8d11503c5998b699a087abe9cd6fef3863bc8b13b402eda", 1},
	"zfp:accuracy/ratio/f64/1":       {"01ceb8cff44f7ea15ea934e3ece7cb1c860181718afb29f4ef1e6a467276e9a6", 1},
	"zfp:accuracy/ratio/f64/4":       {"2a1a43b465c3cd4932e27a848cc5397518e5d63434b834b12ddc59bc3b3eb57a", 1},
	"zfp:accuracy/psnr/f32/1":        {"ac058617e787dd785c89ef6ed005070755022c5ace72256c081917bed2867f39", 2},
	"zfp:accuracy/psnr/f32/4":        {"ac058617e787dd785c89ef6ed005070755022c5ace72256c081917bed2867f39", 2},
	"zfp:accuracy/psnr/f64/1":        {"b58ac3355931d102eb9808b8e833d5e1f180022759ae3cc99864087106a9bda6", 2},
	"zfp:accuracy/psnr/f64/4":        {"b58ac3355931d102eb9808b8e833d5e1f180022759ae3cc99864087106a9bda6", 2},
	"zfp:accuracy/ssim/f32/1":        {"9aa3b3a3e76c7cbe7af0fbcd6d721e2ffb4d32fef9786c48cee24c852258ddf3", 1},
	"zfp:accuracy/ssim/f32/4":        {"9aa3b3a3e76c7cbe7af0fbcd6d721e2ffb4d32fef9786c48cee24c852258ddf3", 1},
	"zfp:accuracy/ssim/f64/1":        {"6be63cab82842299e3b9282ddc5e3532c9162a5d0de047f8c043772f9ddac048", 1},
	"zfp:accuracy/ssim/f64/4":        {"6be63cab82842299e3b9282ddc5e3532c9162a5d0de047f8c043772f9ddac048", 1},
	"zfp:accuracy/max-error/f32/1":   {"infeasible 0.03836345672607422 at 0.552734375", 298},
	"zfp:accuracy/max-error/f32/4":   {"infeasible 0.03836345672607422 at 0.552734375", 298},
	"zfp:accuracy/max-error/f64/1":   {"infeasible 0.03836359825477942 at 0.552734375", 298},
	"zfp:accuracy/max-error/f64/4":   {"infeasible 0.03836359825477942 at 0.552734375", 298},
	"zfp:precision/ratio/f32/1":      {"9401744053416b7bdb52b29271fe10871d557fdddf00c2817567e9231217aed9", 122},
	"zfp:precision/ratio/f32/4":      {"0287b1c896b3fc59c2dd7463e338aaaa3b4f244069f12ffb6180412c2e43ee76", 122},
	"zfp:precision/ratio/f64/1":      {"897c6f05641748090b13bfdc1f76182473241c231a0cbc12716f96f74be54c38", 170},
	"zfp:precision/ratio/f64/4":      {"ec5b0e0d9eefda48a713f4bf94b7dbbeee24703928b0638a741c310be7ed0308", 170},
	"zfp:precision/psnr/f32/1":       {"a4c287e4da4173aff5cce187fb40ae1a91870508f6511012e7567c012b7186f1", 195},
	"zfp:precision/psnr/f32/4":       {"a4c287e4da4173aff5cce187fb40ae1a91870508f6511012e7567c012b7186f1", 195},
	"zfp:precision/psnr/f64/1":       {"bc9045698c80b48b367443c3e744a2badbad0c88b95ada38dc06f021e22dd564", 195},
	"zfp:precision/psnr/f64/4":       {"bc9045698c80b48b367443c3e744a2badbad0c88b95ada38dc06f021e22dd564", 195},
	"zfp:precision/ssim/f32/1":       {"9ea648e5a709286d0919a13181698c3a5341cc003b11599d6220afedd0dce1b6", 146},
	"zfp:precision/ssim/f32/4":       {"9ea648e5a709286d0919a13181698c3a5341cc003b11599d6220afedd0dce1b6", 146},
	"zfp:precision/ssim/f64/1":       {"10b9f59047d742a05a3728a84a8284cff1052bedac145dea67249e2d2dddcbe1", 146},
	"zfp:precision/ssim/f64/4":       {"10b9f59047d742a05a3728a84a8284cff1052bedac145dea67249e2d2dddcbe1", 146},
	"zfp:precision/max-error/f32/1":  {"infeasible 0.06533336639404297 at 13", 288},
	"zfp:precision/max-error/f32/4":  {"infeasible 0.06533336639404297 at 13", 288},
	"zfp:precision/max-error/f64/1":  {"infeasible 0.06533320767879225 at 13", 288},
	"zfp:precision/max-error/f64/4":  {"infeasible 0.06533320767879225 at 13", 288},
	"zfp:rate/ratio/f32/1":           {"5da6df68b86bccc0ce887f1c0f287e351973a2f1ac34bf7f090cdc117aa516fb", 2},
	"zfp:rate/ratio/f32/4":           {"97e1d373f7d22eb6b589d96ecd4a461bd0add6704d59a511922228fd09bea0c6", 2},
	"zfp:rate/ratio/f64/1":           {"00df86bcb53121701ca965e9c84f4591554b7209774318edca9ae79236255804", 50},
	"zfp:rate/ratio/f64/4":           {"bf8d2c9152bd7787a54b365c53649aac1c857b24ac73bd57ab7170787bb2f62c", 50},
	"zfp:rate/psnr/f32/1":            {"d0677b1807538c17c32db02e7e4bd6dd8595a289781519ef46c57e993e786f34", 51},
	"zfp:rate/psnr/f32/4":            {"d0677b1807538c17c32db02e7e4bd6dd8595a289781519ef46c57e993e786f34", 51},
	"zfp:rate/psnr/f64/1":            {"492d1e5c227be8adbad5b5b9d014fd97d0394f8ada78ec8e81220c46b1399c99", 51},
	"zfp:rate/psnr/f64/4":            {"492d1e5c227be8adbad5b5b9d014fd97d0394f8ada78ec8e81220c46b1399c99", 51},
	"zfp:rate/ssim/f32/1":            {"a00d51edcf8335163a547c917433d3ae2225e1f3078bb3d3c3e3a1791d95cf39", 1},
	"zfp:rate/ssim/f32/4":            {"a00d51edcf8335163a547c917433d3ae2225e1f3078bb3d3c3e3a1791d95cf39", 1},
	"zfp:rate/ssim/f64/1":            {"de6e60a1c89c2cef4e02a3b8ad7553cd3aaf9d23a8da3c998cbf059349548e8b", 1},
	"zfp:rate/ssim/f64/4":            {"de6e60a1c89c2cef4e02a3b8ad7553cd3aaf9d23a8da3c998cbf059349548e8b", 1},
	"zfp:rate/max-error/f32/1":       {"3434e0345d2940b386af80bf3201aaf35c6060a3afd7c8bff9919753896d029f", 83},
	"zfp:rate/max-error/f32/4":       {"3434e0345d2940b386af80bf3201aaf35c6060a3afd7c8bff9919753896d029f", 83},
	"zfp:rate/max-error/f64/1":       {"41fe7db7f6b80a488edccfe35ecb6109d3a43933d3dab4fabfe71fc8e2c8e155", 83},
	"zfp:rate/max-error/f64/4":       {"41fe7db7f6b80a488edccfe35ecb6109d3a43933d3dab4fabfe71fc8e2c8e155", 83},
}
