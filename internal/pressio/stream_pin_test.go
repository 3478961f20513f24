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
}
