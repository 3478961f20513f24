package pressio

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"fraz/internal/container"
	"fraz/internal/grid"
)

// pinShape is 3-D so every registered codec accepts it, with extents that
// are multiples of no codec's block edge (sz 6, zfp 4, szx/frsz 128 flat).
var pinShape = grid.Dims{10, 18, 26}

// pinField is the deterministic field the stream pins are taken on. It is
// built from integer arithmetic and power-of-two scalings only, so every
// value is exact in float64 and the field is the same on any platform (no
// libm, nothing a compiler may fuse). It holds what the kernels branch on:
// a smooth trend (predictable), noise (unpredictable at tight bounds), a
// run of exact zeros (frsz's zero block) and a run of one repeated value
// (szx's constant block).
func pinField[T grid.Float]() []T {
	out := make([]T, pinShape.Len())
	lcg := uint64(0x9E3779B97F4A7C15)
	n := 0
	for i := 0; i < pinShape[0]; i++ {
		for j := 0; j < pinShape[1]; j++ {
			for k := 0; k < pinShape[2]; k++ {
				lcg = lcg*6364136223846793005 + 1442695040888963407
				smooth := float64(3*i*i+2*j*k-5*k) / 16
				noise := float64(int64(lcg>>40)-1<<23) / (1 << 26)
				switch {
				case n >= 300 && n < 600:
					out[n] = 0
				case n >= 900 && n < 1300:
					out[n] = 7.25
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

// TestStreamsByteIdentical pins the exact bytes every registered codec
// writes, and the exact reconstruction it reads back, at both element
// widths. A kernel rewrite that is meant to keep the format is reviewable
// as "this table did not change"; a change that is meant to alter a stream
// bumps the codec's magic and regenerates the row (the failure log prints
// the whole table in source form).
func TestStreamsByteIdentical(t *testing.T) {
	var regenerated strings.Builder
	failed := false
	seen := 0
	for _, c := range Codecs() {
		for _, dt := range []container.DType{container.Float32, container.Float64} {
			var buf Buffer
			var err error
			if dt == container.Float64 {
				buf, err = NewBufferOf(pinField[float64](), pinShape)
			} else {
				buf, err = NewBufferOf(pinField[float32](), pinShape)
			}
			if err != nil {
				t.Fatal(err)
			}
			for _, param := range pinParams(c.Param) {
				key := pinKey(c.Name, dt, param)
				comp, err := c.Compress(buf, param)
				if err != nil {
					t.Fatalf("%s: compress: %v", key, err)
				}
				dec, err := c.Decompress(comp, pinShape, dt)
				if err != nil {
					t.Fatalf("%s: decompress: %v", key, err)
				}
				got := [2]string{sha(comp), shaValues(dec)}
				fmt.Fprintf(&regenerated, "\t%q: {%q, %q},\n", key, got[0], got[1])
				seen++
				want, ok := streamPins[key]
				switch {
				case !ok:
					failed = true
					t.Errorf("%s: no pinned hashes", key)
				case got[0] != want[0]:
					failed = true
					t.Errorf("%s: stream bytes changed (%d bytes): sha256 %s, pinned %s", key, len(comp), got[0], want[0])
				case got[1] != want[1]:
					failed = true
					t.Errorf("%s: reconstruction changed: sha256 %s, pinned %s", key, got[1], want[1])
				}
			}
		}
	}
	if seen != len(streamPins) {
		failed = true
		t.Errorf("%d rows pinned, %d produced: a codec left the registry or a row is stale", len(streamPins), seen)
	}
	if failed {
		t.Logf("table as this build produces it:\n%s", regenerated.String())
	}
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
