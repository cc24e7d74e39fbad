package store

import (
	"bytes"
	"testing"
)

// FuzzDecodeBlob throws arbitrary bytes at the full blob-validation
// path — the magic check, inflation under the body-size rail, the
// bounds-checked v3 binary walk, digest/schema checks. The invariant is
// the store's corrupt-blob promise: any input either validates to a
// non-nil result or returns an error; it never panics, a container
// never inflates past maxCanonicalBytes (a bomb is an invalid blob,
// not an allocation storm), and nothing without the v3 magic — the
// plain-JSON and gzip-JSON seeds of earlier containers included — ever
// validates.
func FuzzDecodeBlob(f *testing.F) {
	k := mustKey(f, 0, 42)
	plain := legacyJSON(k.Digest)
	comp := gzipBytes(f, plain)
	v3, err := EncodeBlobV3(k, testResult())
	if err != nil {
		f.Fatal(err)
	}

	f.Add(plain)
	f.Add(comp)
	f.Add(v3)
	// Truncations tear the input at every layer: mid-JSON for the plain
	// seed, mid-deflate-stream and mid-gzip-footer for the gzip seeds,
	// and — for v3 — mid-length-prefix and mid-section inside the
	// inflated binary body.
	f.Add(plain[:len(plain)/2])
	for _, src := range [][]byte{comp, v3} {
		f.Add(src[:len(src)/2])
		f.Add(src[:len(src)-4]) // gzip CRC/ISIZE footer torn off
	}
	// Bit flips corrupt without truncating — on v3 they land in the
	// deflate stream (CRC catch) or the magic (container misdetect).
	for _, src := range [][]byte{plain, comp, v3} {
		flipped := bytes.Clone(src)
		flipped[len(flipped)/3] ^= 0x40
		f.Add(flipped)
	}
	// Torn and misaligned v3 bodies behind an intact gzip layer: the
	// deflate CRC passes, so every cut lands on the binary reader's
	// bounds checks — truncated length prefixes, section counts pointing
	// past the end, and a trailing-garbage tail. reV3 rebuilds a valid
	// container around a mutated body so only the body is hostile.
	reV3 := func(b []byte) []byte {
		return append(append([]byte(nil), v3Magic[:]...), gzipBytes(f, b)...)
	}
	// testResult and codecResult are campaign-shaped, as every result
	// the encoder accepts must be: their bodies store measurements as
	// byte-shuffled integer columns and derive the floats. codecResult
	// has 20 pairs of 30 measurements, so cuts and flips inside those
	// columns and the byte-wide labels land on their bounds checks.
	columns, err := EncodeBlobV3(k, codecResult())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(columns)
	for _, src := range [][]byte{v3, columns} {
		body, err := inflateV3(src)
		if err != nil {
			f.Fatal(err)
		}
		raw := bytes.Clone(body.Bytes())
		putDecodeBuf(body)
		for _, cut := range []int{1, 3, 7, len(raw) / 3, len(raw) / 2, len(raw) - 1} {
			if cut < len(raw) {
				f.Add(reV3(raw[:cut]))
			}
		}
		f.Add(reV3(append(bytes.Clone(raw), 0xEE))) // trailing body byte
		for _, at := range []int{len(raw) / 3, len(raw) / 2} {
			flipped := bytes.Clone(raw)
			flipped[at] ^= 0xFF // likely lands in a count, a flag or a column
			f.Add(reV3(flipped))
		}
	}
	// A high-ratio member: 64 KiB of padding compresses to ~100 bytes,
	// steering the fuzzer toward the inflation rail, with and without
	// the magic.
	bombBody := gzipBytes(f, bytes.Repeat([]byte{' '}, 64<<10))
	f.Add(bombBody)
	f.Add(append(append([]byte(nil), v3Magic[:]...), bombBody...))
	f.Add([]byte(`{}`))
	f.Add([]byte{})
	f.Add([]byte{0x1f, 0x8b}) // bare gzip magic, no stream
	f.Add(v3Magic[:])         // bare v3 magic, no stream
	f.Add(v3[:4+2])           // v3 magic + torn gzip header

	digest := k.Digest
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := ValidateBlob(data, digest)
		if err == nil && res == nil {
			t.Fatal("ValidateBlob returned nil result with nil error")
		}
		if err == nil && !hasV3Magic(data) {
			t.Fatal("ValidateBlob accepted bytes without the v3 magic")
		}
		// The proof-carrying constructor shares the parse; it must agree
		// with ValidateBlob on validity and never hand out a nil result.
		vb, vbErr := ValidateBlobBytes(data, digest)
		if (vbErr == nil) != (err == nil) {
			t.Fatalf("ValidateBlobBytes err=%v disagrees with ValidateBlob err=%v", vbErr, err)
		}
		if vbErr == nil && vb.Result() == nil {
			t.Fatal("ValidateBlobBytes returned nil result with nil error")
		}
		// The digest-mismatch path must be just as total.
		if res, err := ValidateBlob(data, "deadbeef"); err == nil && res == nil {
			t.Fatal("digest-mismatch ValidateBlob: nil result with nil error")
		}
	})
}
