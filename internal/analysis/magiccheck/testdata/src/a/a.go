// Package a exercises magiccheck: uniqueness and the width-tag digit
// convention.
package a

const (
	// Well-formed pair: unique values, digit matches the name's width
	// suffix.
	magicOK32 = 0x4F4B4731 // "OKG1"
	magicOK64 = 0x4F4B4732 // "OKG2"

	// No width suffix in the name: exempt from the digit rule.
	sentinelMagic = 0x53454E54 // "SENT"

	// Same value declared twice: the second is a collision.
	magicDup32      = 0x44555031 // "DUP1"
	magicDupTwin32  = 0x44555031 // want `magic magicDupTwin32 \("DUP1"\) collides with a\.magicDup32`
	magicBadDigit32 = 0x42414432 // want `magic magicBadDigit32 \("BAD2"\) tags the wrong width`
	magicNoDigit64  = 0x4E4F4E45 // want `magic magicNoDigit64 \("NONE"\) must carry exactly one width-tag digit, found 0`

	// Not a magic at all; the analyzer must ignore it.
	headerLen = 16
)
