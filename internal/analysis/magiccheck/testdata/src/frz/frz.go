// Package frz pins the magiccheck conventions for the frsz codec's stream
// magics: the real FRZ1/FRZ2 values must pass the width-tag rule (trailing
// ASCII digit '1' on the *32 constant, '2' on the *64 one), and any
// re-declaration of the same 4 bytes must be flagged as a collision.
package frz

const (
	// The frsz stream magics, as declared by internal/frsz: "FRZ1" tags
	// float32 streams, "FRZ2" float64.
	magicFRSZ32 = 0x315A5246 // "FRZ1"
	magicFRSZ64 = 0x325A5246 // "FRZ2"

	// A second codec claiming the float32 value: streams would mis-route.
	// (The analyzer renders the constant most-significant byte first, so
	// the little-endian stream bytes "FRZ1" print as "1ZRF".)
	magicImposter32 = 0x315A5246 // want `magic magicImposter32 \("1ZRF"\) collides with frz\.magicFRSZ32`

	// Swapping the width digits breaks the tag rule even though the values
	// themselves are fresh.
	magicSwap32 = 0x32505753 // want `magic magicSwap32 \("2PWS"\) tags the wrong width`
	magicSwap64 = 0x31505753 // want `magic magicSwap64 \("1PWS"\) tags the wrong width`
)
