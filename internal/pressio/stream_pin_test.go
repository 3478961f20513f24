package pressio

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"testing"

	"fraz/internal/container"
	"fraz/internal/grid"
)

// pinShape is 3-D so every registered codec accepts it, with extents that
// are multiples of no codec's block edge (sz 6, zfp 4, szx/frsz 128 flat).
var pinShape = grid.Dims{10, 18, 26}

// pinField is the deterministic field the stream pins are taken on, at any
// rank: a shape of rank below 3 takes its missing slow coordinates as zero,
// so at pinShape the field is the one the table was first generated on. It
// is built from integer arithmetic and power-of-two scalings only, so every
// value is exact in float64 and the field is the same on any platform (no
// libm, nothing a compiler may fuse). It holds what the kernels branch on:
// a smooth trend (predictable), noise (unpredictable at tight bounds), a
// run of exact zeros (frsz's zero block) and a run of one repeated value
// (szx's constant block). With nonFinite set it also holds scattered NaNs
// and infinities of both signs.
func pinField[T grid.Float](shape grid.Dims, nonFinite bool) []T {
	ext := [3]int{1, 1, 1}
	copy(ext[3-len(shape):], shape)
	out := make([]T, shape.Len())
	lcg := uint64(0x9E3779B97F4A7C15)
	n := 0
	for i := 0; i < ext[0]; i++ {
		for j := 0; j < ext[1]; j++ {
			for k := 0; k < ext[2]; k++ {
				lcg = lcg*6364136223846793005 + 1442695040888963407
				smooth := float64(3*i*i+2*j*k-5*k) / 16
				noise := float64(int64(lcg>>40)-1<<23) / (1 << 26)
				switch {
				case n >= 300 && n < 600:
					out[n] = 0
				case n >= 900 && n < 1300:
					out[n] = 7.25
				case nonFinite && n%97 == 5:
					out[n] = T(math.NaN())
				case nonFinite && n%101 == 7:
					out[n] = T(math.Inf(1))
				case nonFinite && n%103 == 11:
					out[n] = T(math.Inf(-1))
				default:
					out[n] = T(smooth + noise)
				}
				n++
			}
		}
	}
	return out
}

// pinParams returns the three parameter values a codec is pinned at (one for
// a codec that ignores its parameter), chosen by what the parameter measures; the field's value range is about 75.
func pinParams(p Param) []float64 {
	switch p.Unit {
	case UnitAbsError:
		return []float64{2, 0.05, 1e-4}
	case UnitSquaredError:
		return []float64{4, 0.0025, 1e-8}
	case UnitRangeFraction:
		return []float64{1e-2, 1e-3, 1e-5}
	case UnitBits:
		return []float64{4, 9, 16}
	case UnitPlanes:
		return []float64{6, 12, 20}
	}
	return []float64{1} // lossless: the parameter is ignored
}

func pinKey(codec string, dt container.DType, param float64) string {
	return fmt.Sprintf("%s/%s/%g", codec, dt, param)
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// shaValues hashes a reconstruction as little-endian IEEE-754, whatever the
// host's byte order.
func shaValues(b Buffer) string {
	h := sha256.New()
	var err error
	if b.DType() == container.Float64 {
		err = binary.Write(h, binary.LittleEndian, b.Float64())
	} else {
		err = binary.Write(h, binary.LittleEndian, b.Float32())
	}
	if err != nil {
		panic(err) // a hash never fails a write, and both slices are fixed-size data
	}
	return hex.EncodeToString(h.Sum(nil))
}

// pinBuffer is pinField at the given width, as a Buffer.
func pinBuffer(t *testing.T, shape grid.Dims, dt container.DType, nonFinite bool) Buffer {
	t.Helper()
	var buf Buffer
	var err error
	if dt == container.Float64 {
		buf, err = NewBufferOf(pinField[float64](shape, nonFinite), shape)
	} else {
		buf, err = NewBufferOf(pinField[float32](shape, nonFinite), shape)
	}
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// pinTable compresses buf at each of the codec's pin parameters, decodes the
// stream back, and records the row's key and hashes in got.
func pinTable(t *testing.T, got map[string][2]string, keys *[]string, prefix string, c *Codec, buf Buffer) {
	t.Helper()
	for _, param := range pinParams(c.Param) {
		key := prefix + pinKey(c.Name, buf.DType(), param)
		comp, err := c.Compress(buf, param)
		if err != nil {
			t.Fatalf("%s: compress: %v", key, err)
		}
		dec, err := c.Decompress(comp, buf.Shape, buf.DType())
		if err != nil {
			t.Fatalf("%s: decompress: %v", key, err)
		}
		got[key] = [2]string{sha(comp), shaValues(dec)}
		*keys = append(*keys, key)
	}
}

// checkPins compares the produced rows with the pinned ones; on any
// difference it logs the produced table in source form.
func checkPins(t *testing.T, got map[string][2]string, keys []string, pins map[string][2]string) {
	t.Helper()
	var regenerated strings.Builder
	failed := false
	for _, key := range keys {
		fmt.Fprintf(&regenerated, "\t%q: {%q, %q},\n", key, got[key][0], got[key][1])
		want, ok := pins[key]
		switch {
		case !ok:
			failed = true
			t.Errorf("%s: no pinned hashes", key)
		case got[key][0] != want[0]:
			failed = true
			t.Errorf("%s: stream bytes changed: sha256 %s, pinned %s", key, got[key][0], want[0])
		case got[key][1] != want[1]:
			failed = true
			t.Errorf("%s: reconstruction changed: sha256 %s, pinned %s", key, got[key][1], want[1])
		}
	}
	if len(keys) != len(pins) {
		failed = true
		t.Errorf("%d rows pinned, %d produced: a codec left the registry or a row is stale", len(pins), len(keys))
	}
	if failed {
		t.Logf("table as this build produces it:\n%s", regenerated.String())
	}
}

// TestStreamsByteIdentical pins the exact bytes every registered codec
// writes, and the exact reconstruction it reads back, at both element
// widths. A kernel rewrite that is meant to keep the format is reviewable
// as "this table did not change"; a change that is meant to alter a stream
// bumps the codec's magic and regenerates the row (the failure log prints
// the whole table in source form).
func TestStreamsByteIdentical(t *testing.T) {
	got := map[string][2]string{}
	var keys []string
	for _, c := range Codecs() {
		for _, dt := range []container.DType{container.Float32, container.Float64} {
			pinTable(t, got, &keys, "", c, pinBuffer(t, pinShape, dt, false))
		}
	}
	checkPins(t, got, keys, streamPins)
}

// edgePinCases are the streams pinShape does not reach: sz at ranks 1 and 2
// and mgard at rank 2, a 64³ field whose Huffman stage writes codes longer
// than 11 bits (the quantisation codes at the tight pin bound spread over
// thousands of symbols), and sz on a field holding NaN and ±Inf, which drives
// the non-finite paths of predictor selection (a 0·Inf product is NaN). The
// zfp rows cover its block walk at ranks 1 and 2, fixed-rate padding and
// budget clipping on partial blocks, and, on the 64³ field, the int64
// coefficient planes of float64 input over 4,096 whole blocks.
var edgePinCases = []struct {
	codec     string
	shape     grid.Dims
	nonFinite bool
}{
	{"sz:abs", grid.Dims{3001}, false},
	{"sz:abs", grid.Dims{45, 61}, false},
	{"mgard:abs", grid.Dims{45, 61}, false},
	{"sz:abs", grid.Dims{64, 64, 64}, false},
	{"mgard:abs", grid.Dims{64, 64, 64}, false},
	{"sz:abs", pinShape, true},
	{"zfp:accuracy", grid.Dims{3001}, false},
	{"zfp:accuracy", grid.Dims{45, 61}, false},
	{"zfp:rate", grid.Dims{45, 61}, false},
	{"zfp:accuracy", grid.Dims{64, 64, 64}, false},
	// mgard's level walk where its tap pattern changes: one odd node per
	// axis with no right neighbour (2×2), extents whose last odd node loses
	// its right neighbour at a coarse level (3×5×7; 33 beside 65, which sets
	// six levels), 2^k+1 extents where no node does (17×9×5), an extent of
	// 1 (9×1×9), and non-finite values through the walk and the quantiser,
	// on fields where NaNs meet in the walk's sums, so that which of two
	// NaNs an addition keeps shows in the literals.
	{"mgard:abs", grid.Dims{2, 2}, false},
	{"mgard:l2", grid.Dims{2, 2}, false},
	{"mgard:abs", grid.Dims{3, 5, 7}, false},
	{"mgard:l2", grid.Dims{3, 5, 7}, false},
	{"mgard:abs", grid.Dims{65, 33}, false},
	{"mgard:l2", grid.Dims{65, 33}, false},
	{"mgard:abs", grid.Dims{17, 9, 5}, false},
	{"mgard:l2", grid.Dims{17, 9, 5}, false},
	{"mgard:abs", grid.Dims{9, 1, 9}, false},
	{"mgard:abs", pinShape, true},
	{"mgard:l2", grid.Dims{45, 61}, true},
	// sz where its visit order and the gathering of a block's literals
	// could change what it writes: partial blocks on every axis (7×13×11
	// against the 6³ default), an extent of 1 (13×1×20), and literals
	// scattered through rank-2 blocks by non-finite values (45×61).
	{"sz:abs", grid.Dims{7, 13, 11}, false},
	{"sz:abs", grid.Dims{13, 1, 20}, false},
	{"sz:abs", grid.Dims{45, 61}, true},
}

// TestEdgeStreamsByteIdentical is TestStreamsByteIdentical for edgePinCases.
func TestEdgeStreamsByteIdentical(t *testing.T) {
	got := map[string][2]string{}
	var keys []string
	for _, ec := range edgePinCases {
		c, ok := Lookup(ec.codec)
		if !ok {
			t.Fatalf("%s is not registered", ec.codec)
		}
		prefix := ec.shape.String() + "/"
		if ec.nonFinite {
			prefix += "nonfinite/"
		}
		for _, dt := range []container.DType{container.Float32, container.Float64} {
			pinTable(t, got, &keys, prefix, c, pinBuffer(t, ec.shape, dt, ec.nonFinite))
		}
	}
	checkPins(t, got, keys, edgePins)
}

// streamPins maps codec/dtype/parameter to the SHA-256 of the stream and of
// the reconstruction as little-endian IEEE-754. Generated at the commit
// before the szx/frsz kernels became one generic body per operation.
var streamPins = map[string][2]string{
	"flate:lossless/float32/1":    {"062b430bd2a06c3efae1d2ff06277e15fc5f045eb2bbca690b359c37f88507aa", "b9d9e322fc82b13f9f316231a2d5ae288f4ccc91964a4868587ea7d9ca3ee460"},
	"flate:lossless/float64/1":    {"6de5424286f7d42f51fe379d6591ceac1339cb48f65a754f4430f61ac01eedfd", "1d192f48afddde8e19fa3074dc3756d4d9b7cb0365c0883e6e0577f625007043"},
	"frsz:rate/float32/4":         {"c910a12ce1b2c23341a8796cabced4784f1c7c4d05bc9f4cc9c7780d4b1e835f", "5b9a86fa5436e224d32bf88c1fe8cb3ad3764b855e5d894de3ee1648986f2ed0"},
	"frsz:rate/float32/9":         {"2b8e7b44c92a18415cec7aedd1cfb0fe11f77a01c82325f32d8cc976c0a16cb1", "785d725cdaabe3184367d09ae0c8fee0f92f0555674a60701494d7662eaba5bc"},
	"frsz:rate/float32/16":        {"60bed522bef72861b41c8a3b41f5873b79c3ee47a1b66e1ee5d968ac40f05f2b", "01e68c546d9bade420433ffadde66f150611d9d7c78fce577bfaa63cc09d227f"},
	"frsz:rate/float64/4":         {"2274f594c09a97895ce4cd5128e04e22162e84297a909729727b86b2e65363a3", "b4d5a14859d711e65c18ba2b9005f823e938298b11683d2759ce681dda2a7194"},
	"frsz:rate/float64/9":         {"46a5f5f5c99eb5ab4bbcb3918d7ecc9201f39b525cfc2ddc1a6c4d1446889a69", "c41daa8a1c794210c123f94c0e597bc48cd930217c812618f5541f10577ba83c"},
	"frsz:rate/float64/16":        {"824978ab201286dc67c8b6be42cd8afea760600ab8f9ca2d167383e307189442", "7fc9bbcfa03872bca9975a02aa02c1f49b922d8b72a313be23a45f901dc01550"},
	"mgard:abs/float32/2":         {"ca343018fced9bc6528130dd77d47708c69a089765d65a89dbafb6db84e096c0", "5c7cde21f6db39291ae9f06b685229ea059ebb987103e37b18b5026520af796c"},
	"mgard:abs/float32/0.05":      {"2c6636d3b33f1e046ecc36aab4abea28faf3b9e7eb7cb0ee244727b3633ae6ff", "c8d3dad7efca2259153958650733c905101fc0543a97737e7b61692076cd0062"},
	"mgard:abs/float32/0.0001":    {"c48456d70c00a2cd81be2cdbbb98499c9cfa937e1465d5ae38760762044063f1", "2e702aa5b93ef1d6e297aeba2bdd9c023b7f7535e46976cbdbea2b24ce7c31f5"},
	"mgard:abs/float64/2":         {"a1b7a3264986a1257be2c06608374e07f652698d73f8683f3f88487980f47e58", "f7ee1f393fce3f6b71caaab416caa61a6e764b0ee731ebbe60a37dc8969b327d"},
	"mgard:abs/float64/0.05":      {"73c85e7cff61d4045d2e1183727af8b82df192eab2899820d8e971c27e4bd86b", "17fef107d6ae0150ccc625ddae09f8bbee6b71b5eff13fd5869af40c9996ff24"},
	"mgard:abs/float64/0.0001":    {"5be54c67cb1fe7514b95bed3736986ca8f916ef7017fdafcdcb2237b1ef92a36", "568d2ac654c7a2c1ddac6cfc4e517062ad29bc6516c973e99c7cfb73cbb7f6f0"},
	"mgard:l2/float32/4":          {"a46b2c59aefa9cf4dabb2de4a2a7b1384f25cac0e49a95c0c659274df7fe48da", "f401a4f177a26c9a61bd9f12716ce4f442be2aa9209de73188afbc61f7732d8b"},
	"mgard:l2/float32/0.0025":     {"5ac291d579bdac6597f9002f1372da87b00c70702bf7b786e016f9fca46255a9", "f1a2e7e6b55a62fd52ecc0288e183b8acd90803e71dea2f2547bb9e058fbdff4"},
	"mgard:l2/float32/1e-08":      {"08953682dc26aa420f27ba6a55c5b778a34758636a5f3ad5a02ff99d95d65430", "088bab3dbae6dcee142e5eb4d753ef7d03408ee569d34f6de7a6c45b202b24f9"},
	"mgard:l2/float64/4":          {"bf74256e49a2abc169d00a4f97629c55b41fda790496afdee19eb350e2752bb1", "dbc0eeaed74fc670721507847432a03f14194b4f28f3f29c6114f0b05efd245a"},
	"mgard:l2/float64/0.0025":     {"3b2a2276192faa7a806ad5626bbca89ed61950fe1cb1b213e9d5448702bae3ff", "2cd155e5ae25e31babdd27f4a846287a0459e70df8acfa65c929722a3ff37931"},
	"mgard:l2/float64/1e-08":      {"cf8f3150971f8ae41ec96c27cfeb5612e6892e9d5f9edf4b73784411632d7cf7", "7eac7e0f66916ffec070e180dc0dd30d771b3a5002399c50dce0aab66467cc77"},
	"sz:abs/float32/2":            {"a5040749028d82a45c08b0586d953b9ab2e8d4d127d14cf0791faf59f1c34bd6", "98ecf30c216b34ddd19f0a69bc346063312027ddbaa085d07d8c452ed8e8af73"},
	"sz:abs/float32/0.05":         {"556f7c4fc55dd5f5f73321a0310c7227680316f89e95d76208711d5fadf01a82", "b145b0ba96e1a2abfb607f8992b450b9dcdcd25e2d4edc95e9a6d4ec8166b707"},
	"sz:abs/float32/0.0001":       {"323e25c7dfe0b4a558380b671ad6f13777bc2947232315e73640dff920805a8a", "40ddb2c64ed813b21e5ad713c3dc766a5133967b79937561557486e9f846b866"},
	"sz:abs/float64/2":            {"05b59d22e623c1d391d10405328ce92bdffccbc12f2583ff23fc2323b56581ba", "744b96289f46f8bd6cffffbea4276a93433fb4405fe707c55e84f8d8b1bb41d7"},
	"sz:abs/float64/0.05":         {"692cec8d3341cfc102c4f53e20ea0b9cd0b5263b5c03f6286f677363fad2a0c3", "36dcc97989691f8c08b8160a48a44947342f75b231c19c6114ac637051c4c0b1"},
	"sz:abs/float64/0.0001":       {"2b9e0a382fa6e7210fdbce990eda6b9bf5678d2016d37c01fc55c986faf7f357", "693415b843afbb3fa5b046db88918072c88a847be17c34a793e356f0b119a6c2"},
	"sz:rel/float32/0.01":         {"21ca58b074735cac2fbd8912ba54aca1722520ef4268184e8b1739833b87f0d5", "ba9a8cb51ae69de03c7328018e1353236e59890425fc36df758d1d7599868fe6"},
	"sz:rel/float32/0.001":        {"4c93b13a431e05a18a28a4a0b07d9e17c4e5d557d046b2dc59aa13bd5b624d98", "09e1f804a798922f78d42a386d9bae61f1ae9bd771d68869e02413cd72a8e033"},
	"sz:rel/float32/1e-05":        {"6f9a31d5b0d2cf786f05244bad6c66ff7962cf8eedb9b7e8176492a9562d4d6d", "b82920cbd1f1129760a1ecef60cfdc6b51ba6696128334d44a22de5b3533ca5c"},
	"sz:rel/float64/0.01":         {"34f7d2bfe7c73035023a77b6093d6f6385d87444c36afba289b005b3ff1c1154", "a29be9efdb03503e27351e682430890a3ff0613dce3c67ade6f76c26eab6f9a5"},
	"sz:rel/float64/0.001":        {"32383cc7f13006f33679edbce07a650ff68db56088f49b44600c12c85d7504d8", "7fd1915e234e2c62c34ddbb799863036c78a08fe0afb79dd846714c066d6b4a1"},
	"sz:rel/float64/1e-05":        {"c1ca91c3671f588ed330a7a439e9db4aad897813a385d5c082e04358b12ecf1f", "aef5a1cec9a8ead2413b73d68920a4d8fca502c8381c834b1363b323fe90d4bf"},
	"szx:abs/float32/2":           {"eaa9fe123bdbcc4f61a047090b4333daf82640dedc37ec3c1b03c20165b33258", "3cfb40a8a2e42a28a2f33c27f458ae3ed87310654ba4dbf110e58a56b340cb73"},
	"szx:abs/float32/0.05":        {"7a8a0cbfb244ce8cf5a9fdb2f86e786498e1e9702e3ea7366afcbf841eace25c", "0bdd399c4e3aa06cbbea8eb833578c56bf7eeaf7be456444479e13d0ab56ab66"},
	"szx:abs/float32/0.0001":      {"aae7fcb9c82624aae4c7dbe892709aac5754073f4c1ae57170fee5e9ffb05771", "b9d9e322fc82b13f9f316231a2d5ae288f4ccc91964a4868587ea7d9ca3ee460"},
	"szx:abs/float64/2":           {"4cb97d124e56c9af9e433529581c5f94f99fc3751ff64d2083f6593ca9e2f6b5", "b9b966b5abe4e91f466a8361770eba7475cb2dd7fead2e5613af2f3676bdaa9a"},
	"szx:abs/float64/0.05":        {"ee7c973be61267cbe5aae882af3121460b000d4cff741461998163c756f7c34a", "0fe042f52723f7212c3c954569c0ba82fc285465f950378215f87f14c191edcc"},
	"szx:abs/float64/0.0001":      {"f9929a0be0a959dda2d4d15a6582f4caae3585ed4c1ebbc3070a43fa34f2eb2d", "8b88f23988c35816f6218d8c9f0d8d3489d40841cb69611ec207f9d2745b0df3"},
	"zfp:accuracy/float32/2":      {"f805d830f1bf185462f94d460d2c79586590155d9e6ced82d8addc578083ab84", "a2ba5ed8db49ee40b9688ebb09a1ab82c431b491ae598de43b97c2b2d51f76dd"},
	"zfp:accuracy/float32/0.05":   {"f6bb541d642bee374e6e99c6177f4b43f51be3a97778d9941cb297e0a1331f3a", "3d8055f6085db000095337141241f2c5eb6e192b796701baf02e3f4f0c108236"},
	"zfp:accuracy/float32/0.0001": {"7dbc8a99b2069a397b9a940233d467960b2649027d1f412a2626d19b02795e74", "761ade6a5e80e134082f3b531d379b8457c2b1a7d742467604b721b797e25244"},
	"zfp:accuracy/float64/2":      {"20bf9482e73599d2477c3b6dd7178867977b1d47762b90dbe643a5e23a81d1d3", "cc46d6de4225e01ceda40b4eb5954fc2a3ef2e23548bfc13d4ce2a597e157d76"},
	"zfp:accuracy/float64/0.05":   {"697e44f016a1d5ead02573a4c3ea4d66ce5352ba0c1e302c19b77289199642ee", "d3605e0c5f6848a2edbc2576ccab3cae6bf7078ef95c903a70ea29881618f80f"},
	"zfp:accuracy/float64/0.0001": {"3a462acb54b706ffb28fabcfc8dbb4890b90511d838f265e324178b60042e861", "6f9a05eed01f182eb68be85a362a3e4f7d484e6b4370a8734a6592755b205712"},
	"zfp:precision/float32/6":     {"5771b3a4de781890f1f88f5131db7c21a8e7855f2b098d4f430736770e2fdf5c", "ea18decdcc271a45b7d5accd353510289865e0283e1bbe67150eb4efbff892c4"},
	"zfp:precision/float32/12":    {"7c81b2bf7dadb41a8addc8b7ae14aa88e119aaebc192230e1e41b216e67dac44", "e6d328e130e532aa047eda60679d00f4f182de73266ee8f47affcf2c69efd54d"},
	"zfp:precision/float32/20":    {"eac555656e1c17d62cddc375959e2ba7750bcb75060318bc6f98a33f78ba6562", "f7592929852379a2d9fc259571409774f2165dd95a333b25574635ce0dc779f6"},
	"zfp:precision/float64/6":     {"3edcb9a0e6bbabef77db170c5926c6660dc7bbf1bff525ee963d6f391eb28c20", "4236344b47d5141952890beee7cf7d817e36bec597be3a780cb85835d64acce8"},
	"zfp:precision/float64/12":    {"85bda0b7bc67880f8b166d8671514b207491b46cb505ac6803fd593d88635283", "540aa80157f2ae15d331e51baf9baca7bd594ba6c0f7af753417cf40e8318625"},
	"zfp:precision/float64/20":    {"d49a6f64dbb2f52da94c221536764059d873fcb56082763e92b9ac53a48d30d4", "260140c8d278783fca97f0eb69d988fd9cc7aac7f1e5e156d66687dedaa07860"},
	"zfp:rate/float32/4":          {"aec0e76a0e0ad6190a0453125af789eb116543f7cc25bb9262880423d9199a06", "250dd70a05cbe9bd64f9e78161152ebff71ad70dccf8a30c5984bfb85a3c9af7"},
	"zfp:rate/float32/9":          {"59e225beba3fc5646f16b1afc3efb31dbefc857a844338eb8f57f6681f2ac359", "8afa365e38850c68f904c0812dcedc5f50f887285f6d819ccfa0f4902b719e3d"},
	"zfp:rate/float32/16":         {"9ce9d57e6fa31804f4813cc561151986197ad7a473de6f89dd2f694042d3d70e", "3653073475f8b4f4154fa9d69468494c7d3d7f71363ecdf25772d7bdd52e2640"},
	"zfp:rate/float64/4":          {"47b60759e1e007b27f1cf21778712796aecb8253f00b13947126f92d640a1daf", "314038ca4a0d181b073f1cd16cdc37f6faaec3b4fef3d2b74fcc603c05cb16ee"},
	"zfp:rate/float64/9":          {"443e4cf677f25f8bb041a755bb9f35976c3834091f243c1346cf7f0f68acbc09", "07c757bf77d2ec8b7d1a7793101a43a2170f7de7e7a43b8e2864a0236bb03cbe"},
	"zfp:rate/float64/16":         {"4d6d2b2ec2c12f7adc4f5e8a5719e49d79dba7542704438d7f8b0e6ccb49ed23", "d8ad5581a79ae18198ba26f8f73c694f9f63938d246d8e77d8a4551b4d10c9b2"},
}

// edgePins is streamPins for edgePinCases, keyed shape/[nonfinite/]codec/
// dtype/parameter. Generated at the commit before sz's predictor selection,
// mgard's level walk and the Huffman stage were rewritten.
var edgePins = map[string][2]string{
	"3001/sz:abs/float32/2":                    {"ef932a52bdcae7f2d9320c7d75ce02593384fe53a8c8629032ff6ad65f3fdb28", "f049ce87df998adabf1223caac013cf92955060361ef324def6dde3402916093"},
	"3001/sz:abs/float32/0.05":                 {"e761a929505ac82ef9f88d73f8ff632430a8b7e926e088aab966b68220739b8a", "c76aed4f9ff9383c9f31586498a5b10866912165508b2bf27f43b8b5d0d3319b"},
	"3001/sz:abs/float32/0.0001":               {"90c115b2659c73165e56876ebb76d3189db725d2eb32e81e1c55bc207d0fba55", "b6861c020043416e0c69333fff77bedd2856eb242d3da2fa79339631ce94e02e"},
	"3001/sz:abs/float64/2":                    {"12935bb56953470d75c01130b16fe7922741e2c1d6eff2ccc3bb4692fb389560", "1aa056108ffddcc2f24dd0dc83a04e2195e980c1f8c8979bdad50588ee29096a"},
	"3001/sz:abs/float64/0.05":                 {"1176eb47fcc3c5585997fc9e2330f41f358803d5a7ce572d4e44ed279757ba09", "40acdf01f1841f019334df94f146f211f763438a310fdab827bfb040b5a3c168"},
	"3001/sz:abs/float64/0.0001":               {"4ac0fa82a1260e6375dd56bdd3dad5377048871d1e1f12ff3c5ea3081d301e43", "265f413c151098d96a1f240b38847d46850fc40365d064a907ceec37a56fbfd9"},
	"45x61/sz:abs/float32/2":                   {"a97ed35dccd11f9e7099e20a6d0037ec6645f4fadfac58ab6380a9c7a41c51f0", "d9547bffdce6c4e5177a9842683a621f1f31b6a34faaaa4a4deeb3ccf3c662ef"},
	"45x61/sz:abs/float32/0.05":                {"37f8706f060ae42b22cfe0bf5436de2d7a7bed7a9f3e29e1d24f1d7336a702d3", "0d55578348ef04bc24d14c33f46166bcce7cfc06fd5cde79f877c6208ca75bb7"},
	"45x61/sz:abs/float32/0.0001":              {"8d6fbd89e3f6881c2d62c62a7354cb966a3510411170453c204ecbd66f421c09", "546f09a79350860b0084ae3192fbcb80759c0d669edcc95974f4fb7f4628cde9"},
	"45x61/sz:abs/float64/2":                   {"2ab104b380bbbe3e163f2a41c437864d1a924976318567315bc184714864e5f9", "07738486e4004a8cf1536263132a6023dfe87d58126dc18d3af26da2ed301f66"},
	"45x61/sz:abs/float64/0.05":                {"87e96b430e2f77cd8d4ca381ad95b2426df8b8a3044c374be2d271924b027997", "dd78995a4f1aeb514477a3d7e3f4ad767905b339aed506499a59906568a3261d"},
	"45x61/sz:abs/float64/0.0001":              {"b15c918d216ba4b392fe6a514a58af2c31f6373f6e8082c510153c678f032d47", "b28f8d7268d8653f7efd85617c2a60e8a1921c611a7157b224882d940ae787d1"},
	"45x61/mgard:abs/float32/2":                {"7a43b2b9a27e75a61d2f50c058cd2b29b75c31d1847900b77acc1c1a07a1b657", "209f7772973fb620ca74060b72cf9540feb9ad14c04ce7099894de914643a18e"},
	"45x61/mgard:abs/float32/0.05":             {"1913e22236e54e9c4dbfc6d2c18089cd79a1cb085dd535a348fc4aa2a829fc14", "daca0ed013fcd78603f8aa2a64e0ba2722b83d7ffce14ebd3286a2dfb9273f76"},
	"45x61/mgard:abs/float32/0.0001":           {"0292e144fd325a9d7cb8c36ff06343046757bcd249ea91937cd9e7306b82cc3a", "18c9246e1db673ff1c407cca3af039dec84b7f280fff984ca80acdcc78b6f80a"},
	"45x61/mgard:abs/float64/2":                {"0cc1d833ddf2f812bb63e514fb8c47ec1c93655cfa60e0bcccd5ff6c2ed94057", "4d521093cde041b4f868e3f293b9cc05f8235019e14dc2c3056e9562047529be"},
	"45x61/mgard:abs/float64/0.05":             {"f0c2d5f44d273975902d070ca2aa2cdeca524fc8a253a05f3d4ad211a4998132", "db0eca5d77938593c04ebbca945cfeafb5f8e53b0dbeb3dc62b472df5312015b"},
	"45x61/mgard:abs/float64/0.0001":           {"62d4771d4ce409963f8a0924b1ccd4e24f528fdf605bd46a1707d6efa4867a07", "09c0bd57a5c1a9c4d60455ecea4d3d7692e44bcbc9ba4e22118dd8b35766c024"},
	"64x64x64/sz:abs/float32/2":                {"1f5a2ff908d85912a90a7111225a30d169536f963dadc936716be5853ddf68bb", "09fd079fcd67fe4f427019e0076cab9c6eb2193d6656e3d150d12d776616c635"},
	"64x64x64/sz:abs/float32/0.05":             {"b402b3a71ede7bf7076d561c8700f4b0fef8d71b31c89c678c54938690cac1e5", "be8dbf777da8f0cb290e491d5e3b1daec517719f41d10c20f05d0fb00e6864e5"},
	"64x64x64/sz:abs/float32/0.0001":           {"a390d38f80cd67c0900587b6842a25c98a81f0c23cd05baf1e3dc0fa886ed2df", "2dfe0d6559b9cb37016e1c50031a9d7c8115f5ed2fac9696919d69f8acea9175"},
	"64x64x64/sz:abs/float64/2":                {"deccc728a4930fecdb5e1f015456243841177a2e944b19ff1345bf7b3622857b", "f9e2fab40a2cb387557789036721736903b1b4d518bd1976fa2605eaaeba31ae"},
	"64x64x64/sz:abs/float64/0.05":             {"87d144b6b6eaba4963d4c7182a91b39f97d3eee081af7b5accb56ecba7ff370a", "f5200a60607938974f948d394d9f0b60e28a18b4247d9904fc0c748cf6f0e74f"},
	"64x64x64/sz:abs/float64/0.0001":           {"407b268df0f331668415feab7d11e36a65ad8a27c62c34d5ef368412f8259886", "f26f872df926f1212ad990c01e215521b8e83c5dc6f0525134cec76a4c3f28e0"},
	"64x64x64/mgard:abs/float32/2":             {"0b1055d71582193bc2ae7023b9e0bc957c526294a69aa1214501b1fe0d32e1fa", "d6ad9e379876ca9640f471c8f181a26f057369ed47e2eeced17dc5e6d1018033"},
	"64x64x64/mgard:abs/float32/0.05":          {"7c1b045fe6c0973d5995357caec85718a4d0c4a4c66316778254ff2c7399b3d7", "f00067d0e5b8596c4364cc403d12e1dd51bfc3080f2951b376b3929860e0bf65"},
	"64x64x64/mgard:abs/float32/0.0001":        {"25c2b513c9663f9a53aa38e50513e099615f6849a945eb316e65559316bd5d4f", "130d2eda6475da4162c724cf28f6b9680fce4ba77ecdfc932134bdae7285c5d1"},
	"64x64x64/mgard:abs/float64/2":             {"d2b82ec44d73d94347071e5526cde6d789544729f609a114f87321f6b5ab9a12", "1385263b62ead2611d4b798b7511f0f8ca3c48c33ed940edc793e7e9ffb4d264"},
	"64x64x64/mgard:abs/float64/0.05":          {"c03335d9ba825e4c68ba520aaaebb94a1184a0389ad66637d954054bc70c130e", "26ae38812f588bfa3024f2bb201e64a32b21af20547f7083ef9521438cb783f7"},
	"64x64x64/mgard:abs/float64/0.0001":        {"b58b350cb977baf2c3c9b8d6d5d49311fa3346a3663868d2ff152156f0210869", "57d815f4fe544ab833f9784997ad60c1ef4ac11f228754d86467f603cd347763"},
	"10x18x26/nonfinite/sz:abs/float32/2":      {"771e5342d8c05bcda2ce96cd7afe01d43a12a69c05df4323074d81840128a141", "050a54b0c579b4b6a5aa4f860daeca481aa991af131fd210596c79c3da5fbb5b"},
	"10x18x26/nonfinite/sz:abs/float32/0.05":   {"5ebd56ac073f9703a194f8c17fb26d8269d8005330be1cd4fb64fa59573cf7da", "0663f068a0ce317a57d61aa633854dbb299d837925b766f30196cb56f78bef8d"},
	"10x18x26/nonfinite/sz:abs/float32/0.0001": {"e9a9afb89102c80cef36aa521f920b7e4a6431eb0efda8377a42c1c78368ae97", "e6ff1a1fad7e771f743e1ef0c277df090ed9d7e051e9eee5a4ea4781a94549f5"},
	"10x18x26/nonfinite/sz:abs/float64/2":      {"4ba6fb7a185527824e4b74fc1bb1b65e64a0cfe381f52e84d23ea675ec5f0285", "fa771b9f2d19898602ed90ce674878479bb607eef849e3c85a7fde1de801d74a"},
	"10x18x26/nonfinite/sz:abs/float64/0.05":   {"98eca2932b34d925e4fc1c58f24b426384d356ae6cac8c859a6a728c9985cf38", "771cb3f2d4cfc8e211e998843004b0ad7835e3d0fc31269021705f33b087ae01"},
	"10x18x26/nonfinite/sz:abs/float64/0.0001": {"7c9da792f9dcb1f881df76c8ca80ea05cc75f0959686e657c1c55daedcca377e", "ac11eef88f07235b75a0cd7e58d51d41c68382bad31f5e8b8c2b8eb470ee3369"},
	// The zfp rows: generated at the commit before zfp's bit-plane coder and
	// block walk were rewritten.
	"3001/zfp:accuracy/float32/2":          {"9c2a73ef8a326f363c18994b12377be98c6bf362a104399980e1182d54f8fb43", "792e511f15002a23133586649596153afdbef19e54cfac770d79340332915ca5"},
	"3001/zfp:accuracy/float32/0.05":       {"ecf3e7801b5452ba2734e4d947f1345b8f8730af6499463414fc8a20b7e14b34", "e06cd00bcae2a52176507dbf83fcec7f3f89fdf13a10a2a22cdebe6593fe5778"},
	"3001/zfp:accuracy/float32/0.0001":     {"dbfa7c2cb46af367768975f86b0a4bc79445486bcbde2995eb30aea2b5d2fc78", "3b2da197720fc29b4a6c9b1fe10b131cd6caf4030bf3dfd3144708a3e389cbd0"},
	"3001/zfp:accuracy/float64/2":          {"006b93110933e3b356297d068dfaea5c7cbeff1d590590f57955132092df0239", "da75a84218aa88da8a5c725583eac933f972ae07f132842c60924c88f3023490"},
	"3001/zfp:accuracy/float64/0.05":       {"d4f3feebcfda7e2865233fda481a41529db14fb5509a0dd8ac49cd51fbbb038b", "60af52a01e1f74e0717cb33aae6e8d99cd5d61b22b500ffdf7c2e8cab4ee7475"},
	"3001/zfp:accuracy/float64/0.0001":     {"78d6b977d5f2c14efdd8c62f68069448f4a1ce0927129e1a191c43b2176c46cf", "f1c8e0a7758878e86e3346b564c2904f97cca8266d7d4979eae2ae6a3d8265d9"},
	"45x61/zfp:accuracy/float32/2":         {"770d8a20f246e49314fbbf1dff5f33abcc1cba3311af695da65e3f4af5e228ee", "84c787eb3a1b94b8dccadc1b906c2bf0805678881b860333f718bb99a32790f3"},
	"45x61/zfp:accuracy/float32/0.05":      {"3faa7b3b051991129b52a2824092cf83f8480d16f7d2c0498c7a43de359b2087", "f647186f4d7211e1301d2ce0ebc4edca7d554a77b1420a9198d47f7e84070b80"},
	"45x61/zfp:accuracy/float32/0.0001":    {"538304c4c54923c0d0390bc1cdaeaea12578e924a4be7558731f435675f0a7c0", "b820cc17341448d776401683608dc2683f71b44cd4c84eefa34c9426956dfbbd"},
	"45x61/zfp:accuracy/float64/2":         {"5f0a427983b801b10fcfa4a2e4916e5f3b22ce199769dd1ac1ca0005f2f9f574", "0c5495ef10d0a259e75bede53f4b8a5e3d3b9cb54a8375498eafdb9fe1bd5999"},
	"45x61/zfp:accuracy/float64/0.05":      {"41e011977c6eafb6f1448d6187a55913d33a1a6cd10b96029ce38a395fd19bf7", "bedfa84e3dbce349cc95a38cbd17c25e8d3d321ef51d8d256fa3fa66cd494e23"},
	"45x61/zfp:accuracy/float64/0.0001":    {"e6a1752472dae53c65bbf3f241366a75d48673a7bd959e3e12c477e3a537aac1", "c3fe7ba809866f118a82ebd8f5c56937273743a30560557995d503affb207754"},
	"45x61/zfp:rate/float32/4":             {"9caaa41711b79ffe082fa0719790d7240bb037d48ca11406461a06a3655bf515", "b214f3fac945940a20975063baee42885826fe2ceec9a66a774038545b2ace5f"},
	"45x61/zfp:rate/float32/9":             {"0c995d0f1342eb1d949f1671b7f1d8f7410346930193ec86f6199bf9dbca48c6", "d3b017d8c4e5e4681494a1b5ea17d1dbdb405e92cb0b0d5d4d46552681f95396"},
	"45x61/zfp:rate/float32/16":            {"a96ce00a9da6242a7f84e0c6514bb23e93ec7fb68a13faab39152521d8c70334", "74156668db7b03ec19e5edbeb453d6450e80974764bec80b107dda29e79f9465"},
	"45x61/zfp:rate/float64/4":             {"b2d791e39e8fb7784ab789a5f6d1a9553a525745597de697699a451b1782a30c", "e02d023feb603de59225ec8fb2806f1952512e9c5469062b733c13ba2fcdf5c5"},
	"45x61/zfp:rate/float64/9":             {"5ce1c7b926fa4953cf373bd88803d9d6847623a40ca76eff15cbe43071fcc31e", "0740cc82c3ffb5ce46f7ed598e713f5511f3de4c0891963361d7aec86caf009f"},
	"45x61/zfp:rate/float64/16":            {"5812c3740d6df30db13671b84525cb285a86a59893f2101f985063f6d93ac877", "a657b22689294f44f35c7cfab0ccc314ce25b02c3a91d152acff952fc5c6599d"},
	"64x64x64/zfp:accuracy/float32/2":      {"0419d082e50d6c92c06815cfc7f78675bfb7191b929e43a6655e74534e3bbff9", "8c8c49e3e1e40349e89a06490fbb368a661a38baa2276c2e0e7a95f90eebb2ee"},
	"64x64x64/zfp:accuracy/float32/0.05":   {"81b343d0ea80eebfab90509bb1b394447262874b2acb7bdeffb2f023d3ed4030", "4fd18bdbcdd7658cc7832fbe56edbc833836d28fd986225107f0432d99b8b2e4"},
	"64x64x64/zfp:accuracy/float32/0.0001": {"a4c4dccd7ab0080c221cee50969a900c8a957a658fb7ba53fb3a0b99048fc574", "e9b205c0b1e1a0893c3f5695c9e6b06beac328596d68ffc8d46fd3b1bd81205f"},
	"64x64x64/zfp:accuracy/float64/2":      {"f7025ebcbded86352f1503afdbdd3494d80e774eba83a530ea0b81b5d4e92356", "88b1d00002442aee7333c100ae6c5a3ad8f5043551ca93570178f17b244edfe4"},
	"64x64x64/zfp:accuracy/float64/0.05":   {"94a47a9efdeb8f1cf32e71c33edcab2979805185b9f4a64b5390cb6317fe3481", "10d9024fdf9bdf5c6767faa03e672b6864883efa27d27b11015de9e1a21e2853"},
	"64x64x64/zfp:accuracy/float64/0.0001": {"771cde5891fac7efc545511845c14016ce1b33999b3118b36f29718691713f4b", "3baecf09792118df0e3d6c69a3acc351a61d48ba607a0067d56ac6a591b78b47"},
	// The mgard tap-pattern rows: generated at the commit before mgard's
	// level walk became row kernels.
	"2x2/mgard:abs/float32/2":                     {"4df2bb4e072c1beceb1f616b2272b32ce4f8356b9a420b2bfc41145895f36df1", "374708fff7719dd5979ec875d56cd2286f6d3cf7ec317a3b25632aab28ec37bb"},
	"2x2/mgard:abs/float32/0.05":                  {"9b9b1fbf148773a8cf990c114a97dc2ce0c2a4ba9c66982f8e7c00bd977a49e4", "e40f90badc3fcd24445ea0cf717e40d7ee83862da0c2a2cb9011c55e74059f68"},
	"2x2/mgard:abs/float32/0.0001":                {"660d8f221381ad9f563c56192600639add4a8df8289047706bad0e312540ce2c", "7d4fb069b490c4c36b52eadcf7a73fdd0b29a302392f7e30e39866fc02c3bfe1"},
	"2x2/mgard:abs/float64/2":                     {"ef3b85ff60c8fdf181f788259274923eaf10bf90019bce02cc9aa5c904549496", "66687aadf862bd776c8fc18b8e9f8e20089714856ee233b3902a591d0d5f2925"},
	"2x2/mgard:abs/float64/0.05":                  {"5a3a28ae6b481ffbd771a1002db1fe21ca9982987a674b419cf0ff6f3cfa1f2b", "4d0012bdf046a2a13588ab23644541026a0ed4265540e78d1b07481c9d601108"},
	"2x2/mgard:abs/float64/0.0001":                {"202d7df9be93b6a85f8275fc0607d4528567e8cfd8c18113211917ccb87c5f31", "06da07f8f591f0427d4946137b5e5d3fefbab333e8f829d57c0f497a0f2f8d46"},
	"2x2/mgard:l2/float32/4":                      {"f38be6716615e62006909cb8ee0be942cc9c542511c0593325f946db9d5ddf9e", "374708fff7719dd5979ec875d56cd2286f6d3cf7ec317a3b25632aab28ec37bb"},
	"2x2/mgard:l2/float32/0.0025":                 {"01cfe2040f69a459ad8ab4f5903cd40053a2fde8c436667d31985ef5cfdadcef", "9e33b92aded5f4fe456be534712359f5c85fdba775b4bb7ad786448463e846b1"},
	"2x2/mgard:l2/float32/1e-08":                  {"26451cef8541942f704f826d1c3abea4b12f8eb18aa5479d4b7731553a11f4b3", "9020e7ad9dadd15a41c5eed125a697c115f92243db906f2bf2ae7612355e5596"},
	"2x2/mgard:l2/float64/4":                      {"0fbba85e8a0d2b52b6c1fdd650dd94806bfdb080fb319f4af1be10108ca63cbc", "66687aadf862bd776c8fc18b8e9f8e20089714856ee233b3902a591d0d5f2925"},
	"2x2/mgard:l2/float64/0.0025":                 {"9d55ef24dea7cd0a5934d227b3a38fb26a7de74d00f50682130712ba5777ec00", "67d6152e2b3b4be703efc0319c731661c9bda2a8c7d16388d56fc7551e8980c4"},
	"2x2/mgard:l2/float64/1e-08":                  {"f3f16036c290741ebaeb965c53fa5cf6036cecf2c4259d223fb5a8ba23e587b2", "93fb4404b9faec0adbc255790b1d7a107bb5e8293a21d27d76ca336f1ecc3d0e"},
	"3x5x7/mgard:abs/float32/2":                   {"945047df094fe06dd3583d3cc9e858404d08d094a220fb4bf6fb94f4ea6d6e89", "28a51a3c1f9bb8a5903a9b13db4ab6f125a30d4ea732fb5f5261747404a368e7"},
	"3x5x7/mgard:abs/float32/0.05":                {"bd0406c973259807f8df652a98cbf767ed95843c93ce4df57051f84a4178f86f", "677eac8562c700e0fd0acb314c5126c903f9e7dcd8ed7fb4f98e79c0f307e2fc"},
	"3x5x7/mgard:abs/float32/0.0001":              {"a658d333f2cf1dc8e491bdb088dda9125876e7cceb2f7946b2ebec73254fcd57", "d3984a10b5b16eb1b3eb6a8034ddf15857e316c8b60b2ebeb0d5797a9e01ec94"},
	"3x5x7/mgard:abs/float64/2":                   {"2d77b7ccc8ef52be772aabd4798405bef9613b5bc7a3dc6eeb0d3bb3044947e8", "8b3c43aef2329722cbafa656327f18bf355de9ad3d2e48127fecdf91c0c3cd3e"},
	"3x5x7/mgard:abs/float64/0.05":                {"b29c8d0878e8e85a0dc6d90ed715ca06fc2afe6a0ff7d37d8e3e44274d481ef5", "44d84b8bcf26968a70f6157fa67d222619aab0737c22aca99a945b21a11f341e"},
	"3x5x7/mgard:abs/float64/0.0001":              {"2322c85b5ac29d17b93be00b03ae1ba26e4bf25d0b73f75fce6e194291e33d39", "ba6808da67f57080b7dc67bca1120b769182b367613ce300720e07dd7f55828d"},
	"3x5x7/mgard:l2/float32/4":                    {"55583088b46ed64541d089293f5d1b973ef45d7f4f0d543ffb8d27c21afaa472", "5b153784aff30e036db5c1cbeb6f89d0db0a6e072b1aeca4413ab6557c3bacb2"},
	"3x5x7/mgard:l2/float32/0.0025":               {"7e8a9c9a9b00f4119bfaafdb91ffa6e46ea4376f63068f2f13dfbb85ea87bacc", "085e7527c547807dd092706624c12d87f2b48b789520cd69f9ee8a4c9bdd0a4c"},
	"3x5x7/mgard:l2/float32/1e-08":                {"d3ec9b4a8c79de40ab9bfb30e7b082a3fcdfa4eb66b18addbe75119455d921cd", "2b93a6805fd0c465ceb1915baa2357295ec037b300326004a48a52d56c9e55c6"},
	"3x5x7/mgard:l2/float64/4":                    {"97c1bf184943feae12f2868b0b2907f6345f516dbf7e445c645602665a86dba7", "0d26f77b0ff848d756fd1cea5c7705e1c53aaeca33026f4bbbad61f636cf1583"},
	"3x5x7/mgard:l2/float64/0.0025":               {"b2ec153fe37965a1a35d2554b45f4387e8a4cd7a164d97ccbe1a33f7c903c06a", "b3d8a632a28b69e0785c740f0830099536d0ff141ca03a3e43035fcc06b28bb8"},
	"3x5x7/mgard:l2/float64/1e-08":                {"cea1731db2e36cd69a377aadb4db0c356876426c9941876d4dce8648ec74b08b", "3493f623c34b855ea5a27deb03cec787ff96e75266d133f71b8e6f6c39b85b05"},
	"65x33/mgard:abs/float32/2":                   {"02af7421c18e42c802f4ac66eed8186ba1dbbb5de72cdbf2739fbf74063447d1", "ac7193826cb7a5666058752332d287b1de7ed0c260620d62ed1bb14cadf4642a"},
	"65x33/mgard:abs/float32/0.05":                {"96790aea1b222bf66ca6a05a0b3f5c3371c5aa3d1823e9f01c428c13df97e340", "5fd3f145e12d66f2e08aec034915a07bb7abfad88668a36827edbdc099f56ff9"},
	"65x33/mgard:abs/float32/0.0001":              {"e7052026cc6fd2a29efe4d751d8f3bbe48668fafba7ac423de672b58a6b21d92", "91783c0c013631d714226e2a07c6da803238efd12e03f76fb749d4826545dcb5"},
	"65x33/mgard:abs/float64/2":                   {"50bfcf5c1bee6aca8b3007d0bb26e4eec0bf87d57bab5aadd9f6414ec485fe98", "368d7ef82353915ec250b7384ef4424e5a6710cefa7572ff27e3ef7580afe82c"},
	"65x33/mgard:abs/float64/0.05":                {"b9c7ce199aa10be2cf6c664799674fee767f9e1cbe7f524693636806b563039f", "2a4ac64049a30079ad3c4fe1fdafeddf5bbb8414fd89fa497b5fada062239865"},
	"65x33/mgard:abs/float64/0.0001":              {"fe586e37c1f13f8ca5181f4da5fddfac87979b575869a62fc0a1e366f9de3459", "cf8018f2610d00bf422a1cc6286b29e63c99ef5ad509c968708e65ac3772039f"},
	"65x33/mgard:l2/float32/4":                    {"2ac9561c5aef2020ae77e59ffb609262dc6786f5c849b4988cd3367f98ad80f9", "303dc078c4ab4dc0a2d8eeea288ef12082f48a890f74d755d6ddef2cc7486ed0"},
	"65x33/mgard:l2/float32/0.0025":               {"af8920ad8a90c4b29c9f5cf644d100c6a98195c03174921060e860dd60639c88", "5c2cde6102de5036c52f4a9a426dfcf5cb0bdfb52cf77ef30f8332ea741e1924"},
	"65x33/mgard:l2/float32/1e-08":                {"7411ce8b9ce8a0b5e73a888a9a7eb89f4042fc53b2528dd7f0eb275eefbe019c", "7082ac501d232eec84859ec7696869127731b92abf30755e63ddcae2a519f8a5"},
	"65x33/mgard:l2/float64/4":                    {"2a85291ce6ceafc5badb1842663a17f11e02912e57f5e19c64d719dd8546b79f", "5f29bfdec055c18f8b651d7ed09b69f8fa072449931d4efb2fb852ecefc04d73"},
	"65x33/mgard:l2/float64/0.0025":               {"166c28aec3c66d590af0a5168635b2199a14316226ded936814d81b8498851fd", "541d20288cdc859a402e2bdd7c45b9a85561123eb6b2997824bc78249ce1b42e"},
	"65x33/mgard:l2/float64/1e-08":                {"f4e6b9a15f0e4a58bc85dacc4163acda7399e5e3d863b9aca1e3706a59bafa89", "bb17d7d3e89249a371d7ebb606eef998dfb4e27bb6d25d40504598a0cbcfb4a1"},
	"17x9x5/mgard:abs/float32/2":                  {"10de77a903cfab3512f2acfa794925cadbdb6c4a679f85a487a83a1fd118f280", "ad1ed17e0d9c2529dfbe09ec5fb9a231c1e81f82e94b8242f9c94c075d0acc80"},
	"17x9x5/mgard:abs/float32/0.05":               {"d25ad28af98bb6ac149e2ac77667e092c85562f16477da833bb967b7e4f504d9", "1b664754e25fdd57641ec2d50bf1465df1d7aecd48283c2d7aebb4f46d3f3287"},
	"17x9x5/mgard:abs/float32/0.0001":             {"436e7cf2290eda3dae67773cc7137dc7fa1a04883d4e049048eee07ea2bb5a13", "3eee178494202392d2a5259e873cb0b1cf55eff6e4b240e9ae65381b8a170a7f"},
	"17x9x5/mgard:abs/float64/2":                  {"d32eff6011d0e86f18f6738a8d24bbe3b86411304b70ea49309830b2f1b8b27d", "39e599c53879a6546b9ae901be5b2fc9ef5f5995862a1022cccb8c65da06896d"},
	"17x9x5/mgard:abs/float64/0.05":               {"1ea9b57a630be345681722cf5ba3061df89de71f5cfef0812625f9f6d11c0d2f", "6e68f490ca8935bec436abded531a7b6c1c358d8770add6d34d3a149b766ab9b"},
	"17x9x5/mgard:abs/float64/0.0001":             {"21e96c59b3d429f4b65db7f31e198034fa443dd85139cb90602c81c90c836fd2", "469eb937dc61681417bd592beba8524e4aa72a06ff540fe2f61079df85b04908"},
	"17x9x5/mgard:l2/float32/4":                   {"f6ca7297e0fad936fa2fbe12f6e951cbbe5c8eb9ffcba910cbe1a9519b15c2d6", "1e724355e9b1c072b4387be30b889744a022e35fcf1f9b0d182fa9ecf7ac9d9f"},
	"17x9x5/mgard:l2/float32/0.0025":              {"a80354006e3fc08124be4448d2c595806ef4bfb2e32e367247a3d0a8803cd365", "1662c1543da5286610c422d0d5d934bbf3231a2bbb97b248c443ea95c04d4728"},
	"17x9x5/mgard:l2/float32/1e-08":               {"02199bb14bc3c941e00c4d8a9a8fcc94aa978ec92dac7f0d2e5203d8bd548f9e", "f9558e098c14a9faa469f3a86e965dc04837f2b283944a77daa78c1531ac017b"},
	"17x9x5/mgard:l2/float64/4":                   {"857a94b3c9e7a68e19db1199eab3c9af9fb1eedd5afe1c359efb3aa9b75d311d", "d2e88d0930e9aef65c24d53b8a0a8de80ce796667204e0fc19dc32106dae72f1"},
	"17x9x5/mgard:l2/float64/0.0025":              {"a5ed4bbf25187c84866c913c709897293e61b1a53ccc99a478a2c61cf2630f03", "026c848e56669873bc4e6261cf5a7ea58314ff01359e64a1a32da4432e27e912"},
	"17x9x5/mgard:l2/float64/1e-08":               {"bef7233dd65443d5738072d44befedcd2dfb5419ec795e2c7d044f2880176320", "e30e81fdbef3ef551280e4891f1d413af56d87b416285511ee96cafe6a0dc20c"},
	"9x1x9/mgard:abs/float32/2":                   {"decfc979e5a10f9a92628b101a29ea145886be3d8e4b566db668f3f2c2efbc73", "b5743723757f6e01e158774823e1890c10649a234d83fe9f884141231f062736"},
	"9x1x9/mgard:abs/float32/0.05":                {"559156a3ae9b6d9d78749749a5c20257a967300ffea37113cbe116cadc4f2822", "7e9d4b616ccf6fcf68b0da3c946680f7c66bf0aa968a158e7e3dfdd6a7a200dd"},
	"9x1x9/mgard:abs/float32/0.0001":              {"af6455a93d8b3ed342eb82bc12b3be307f5d26438b6f4afef58cce85ee1b5eeb", "e65eaf682b8f072da98ba91610849c642efb1cfaf46f6deb911d9442547b5fbe"},
	"9x1x9/mgard:abs/float64/2":                   {"ed8168d45e6daeb9e0f94b43e95bd4c8bb880043fce51dd33d7be67d945d6ce7", "538ff80af23e39452af285890be32ccd56138e4788645765db3de84ed10d9cf7"},
	"9x1x9/mgard:abs/float64/0.05":                {"7ec8099f495aabc5bb53874d297057a977cd3bcfdabbdaafc2dabf0216783af8", "aae97759a71228c7c3596edcb61747d76e181535d9d97abff5dd49dfe7498237"},
	"9x1x9/mgard:abs/float64/0.0001":              {"64a247053165c676e71817e582f9c7070e06f4ad1b61618eb95ab5c525132907", "cde8012263e4322ce4cbd3aa9417814c82c3f9ffe5ae450891f6ac0e11c9801d"},
	"10x18x26/nonfinite/mgard:abs/float32/0.0001": {"decd5f06e965cb58d65f70a0c93e15e24a036f21b3eb4bf4f35178d92ced1f34", "b271340242d68aee55620d43f6e662c23874626d64afacbf8aec16777453a254"},
	"10x18x26/nonfinite/mgard:abs/float32/0.05":   {"54a37d306db43908517ae4adaf396e56aba305a9abd5f73b8182ed7ed9629b5a", "95bc1a6dc423771f08aa00b97d8942a15622e15caf810add718b6bbaec0707d1"},
	"10x18x26/nonfinite/mgard:abs/float32/2":      {"7363e7485d7f51289cb8e684893c118d0fd748fa189ac33c3622daf06c1fc59d", "2a5cb853534207384b22e89a3dc8912d34cf4e911d6ea00121499ef8a65c1d7f"},
	"10x18x26/nonfinite/mgard:abs/float64/0.0001": {"c1f9930bc4d2b11bed2a42756425b0543dd3dff045cb9f04fbcd3c03a179ee09", "d64a1c1f6f834adfc1fdf0bf45cf5f04fd315150858763df302e7b7d208079c5"},
	"10x18x26/nonfinite/mgard:abs/float64/0.05":   {"6c2a4200e136e442f0b35fd93f34c7b5b32ee69791b8616ac89c5bea6fb849ae", "cf3263bf2afc3d31111a62c737c1f18a85892017de8d95f9a8d05d6721bacc98"},
	"10x18x26/nonfinite/mgard:abs/float64/2":      {"bc640d86b91a0a8d07b525933cac590a2e6a9d9c9ee6faa47e8414cfe25d1382", "6fdcf191f2beea4c91fee4237d894f0db244152aecf200ac2a893eb17b0e5a51"},
	"45x61/nonfinite/mgard:l2/float32/0.0025":     {"22ff01666359b50c7dd7d3298e68a9bf34d6a9355fbd8916754f2f8b4c7bfc56", "f80913584c3a4917c6ed045cc529d65969c07e961e6e26db1c596f7d256c1c8f"},
	"45x61/nonfinite/mgard:l2/float32/1e-08":      {"91e69df65b050c14a8e51ba0c58d990e5b5fdc9aa610eae0a98c73c7e053967e", "33397ed4aa0345c0e0d76b9d36baa32615352d5ccccbb5d296d30e59ec3d6e94"},
	"45x61/nonfinite/mgard:l2/float32/4":          {"411f5f567d09b63f11372b5e99c2ba314a43f7c68d7561c0ba4bae07abb6144f", "aa5d182c08e37c0458ef5c889584485c8c41bbcd466d2010f1d1e16b2529d087"},
	"45x61/nonfinite/mgard:l2/float64/0.0025":     {"58ad06ad2368f110067154443664a47104987a2ec478811fa053d8f4fe316ce5", "b963de98700c014e5881140b42627f5b63bcffc96fa753bf8cfe6238c249e02f"},
	"45x61/nonfinite/mgard:l2/float64/1e-08":      {"93e306c925915312c26a95edff29803ecde66c5257c29ef2ae3d8658567b8836", "738ae6cde010963616fe681c9b2ce31ee0aa0157eb03f2c6d4081017372296cf"},
	"45x61/nonfinite/mgard:l2/float64/4":          {"9d200115a3aa14844c4e27d036b33abaa6908593e102c1cf5002517a8fc96719", "04a93a7f3f441e41e3da4d350e87bf7bbeeff1d0ed5ede27b04d9f6ffe049a6a"},
	// The sz visit-order rows: generated at the commit before sz's Lorenzo
	// walk went wavefront.
	"7x13x11/sz:abs/float32/2":              {"e5e6ad5cab3d705ddeb9ce9d67a13e73bf5c8a39b3b30f0c3b8ea66a29840227", "7b02b7811f3134fa3f7af603afa15b0ced79ab8f15955859cfa132dc22a1077a"},
	"7x13x11/sz:abs/float32/0.05":           {"7907a1da6624e807ed3561a93a2cdaf4797775666a56ed52dfd94306c2f56057", "97c4f9f8e610c10e9ea426cfbebbd9fac0ac8eb64a84ae48429e434ba90ab639"},
	"7x13x11/sz:abs/float32/0.0001":         {"5ba834e9a202de3c135d6301c4dc2f6874424533d8cd17252d74e0613aa4dda9", "bd375a5bcb777ca94fbf3d97bf3c655ec6d6199a2403685ca5ec9e9a75cb081b"},
	"7x13x11/sz:abs/float64/2":              {"c2c713a5422fc4868020f68b8ec6a753e59567a32a0ab55eb91caac0e8c2267d", "7f61286a12384e800112443d31d9469de46e8c59d247905362948d229ffdbcf2"},
	"7x13x11/sz:abs/float64/0.05":           {"c681a4a32f5a1e2eb74b53ff858a25a04e26a940d21446a891ee8cb200844760", "35f1cbc3218db26bcfee515bd590f31f681a6df8599feb3eb1870226665f1f27"},
	"7x13x11/sz:abs/float64/0.0001":         {"7dc4bf11f446885b479947e066e1e297c2acdfb202eec05e6ca1e1c15d0d8310", "9aa6869f94895114931df968c629bba8383a467b3c9ee34e6b4cb29e1cc6687b"},
	"13x1x20/sz:abs/float32/2":              {"197198726ddff49f79583a93bffea197cf612b7a84ed74eaec34b4ef07030f10", "52e80417deee853e38597b9b2bd9f05ebdb246c63b654a82275c5034fdaee4f3"},
	"13x1x20/sz:abs/float32/0.05":           {"637beea130d38f505b51c7fe4b105efa17805274a90cad7435d3750bb0435abd", "e8eff65df9c715f19d8b4d187a62dcb587ff7ec6a551880328e04772e263fd84"},
	"13x1x20/sz:abs/float32/0.0001":         {"355e68b61bc331da075a9d0d9c5695a1892afb0c31c66cbd109f80eba8e6217a", "62a806ee81adb7f32cd43420630ab65e515fff7d6b462e48c414098f70e0ac6b"},
	"13x1x20/sz:abs/float64/2":              {"6140666f0745a179cd038b81ab231aa0f1356328f99d4722a2f797fbf233d721", "8f99faa5d1e1b39abf61c5372c4f653c91014f1ee3d12ae369c63e52b17cde26"},
	"13x1x20/sz:abs/float64/0.05":           {"3b98c7f7e78a6ce7b0c6ccaabf7397091512ae24dc438761ac58cd94442efe96", "7d6969124a30c0a1df31230f9e5d9f578b0a505541a84e07ae134ea1829bcd1a"},
	"13x1x20/sz:abs/float64/0.0001":         {"61383631499a54884b48698928f5236b26fbeff18292a4ec18e87a80c5f20975", "af876888f0ab399b5da67027fd0874b9c4a95e8d6b06b791ce8fed606fb5d312"},
	"45x61/nonfinite/sz:abs/float32/2":      {"abf744c22976db90f848b1ab64188d29ce293181836ef79cf0b899d75770f7f3", "1b1cce46a452bb34aa313e2e15c4fd7646fc7df0b0ad000497f0cbee26e803c5"},
	"45x61/nonfinite/sz:abs/float32/0.05":   {"4f559c9a78d92cc414f5d7f7564dd1014938daae3055ae497e3de3b51d6d02a0", "96a9e0b5a22c1e0327a8278a714674dac040539565455fca61722d45b543ea17"},
	"45x61/nonfinite/sz:abs/float32/0.0001": {"2dd45ac0985387bda8e354b39b1fe4071d1de34cb328fdc614a96e5640ae667e", "be5d945150bef7d1026b479f9e11e59e27acb26e81f95dc6346add1826ba2872"},
	"45x61/nonfinite/sz:abs/float64/2":      {"0d56c92d2a3a53f39c3743e8f00162b3bc6c0c02b272eea0f453f015acdb45f7", "362b1fca377cf62d865ed62cfdbd39d68ad3ccfe1c0b9905e181e9f6ef3711a1"},
	"45x61/nonfinite/sz:abs/float64/0.05":   {"a2f70987424b96bcc60ad6b7ef8269f6a4e086cb50454adb64cc3ca5314be9f4", "5e5eea9195a2a5e71f8bd30a54da17b49abfa1ed67c05580c00295a54e441940"},
	"45x61/nonfinite/sz:abs/float64/0.0001": {"a0ebbd387d461f8215fbe6c8aad55c7cc390ffd4560e0cba96740be4827e57bf", "e1cbe9b227dd4980aa6350c2e2d13a5ba9497d52b964ace04f89c697c74b332f"},
}
