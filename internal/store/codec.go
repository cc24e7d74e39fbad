package store

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"golatest/internal/core"
)

// ErrInvalidBlob marks bytes that are not a valid blob for the digest
// they were presented under: anything but the v3 container (the legacy
// plain-JSON and gzip-JSON blobs included), a broken or truncated
// compressed stream, a malformed binary body, a foreign schema version,
// or a digest mismatch. It distinguishes "these bytes are garbage"
// (reject, recompute) from I/O failures; the network daemon maps it to
// 400 Bad Request.
var ErrInvalidBlob = errors.New("invalid blob")

// gzipBlobLevel is the compression level of every container this
// process writes. One fixed level keeps the bytes deterministic (equal
// key ⇒ equal result ⇒ equal container bytes for writers of the same
// build), so idempotent duplicate Puts still converge byte-for-byte.
// Level 2: a higher level buys little. Over the six quick seed-1
// blobs of schema 9 (300,799 body bytes, best of 20 at GOMAXPROCS=1 on
// a 2-vCPU host), level 6 compressed in 7.6 ms against level 2's 3.4
// ms and inflated in about the same 1.2–1.3 ms, for a ratio of 3.25
// against 3.17 (92,438 against 95,024 bytes), so its extra cold-path
// cost buys no warm-path or wire time worth having.
const gzipBlobLevel = 2

// Codec pools: encode/decode run on every warm store hit and every
// wire transfer, so the gzip state machines (~hundreds of KB each) are
// recycled instead of reallocated per call.
var (
	gzipWriters = sync.Pool{New: func() any {
		w, _ := gzip.NewWriterLevel(io.Discard, gzipBlobLevel)
		return w
	}}
	gzipReaders = sync.Pool{New: func() any { return new(gzip.Reader) }}
	// decodeBufs holds the inflated body between inflation and the
	// binary walk. Safe to recycle as soon as the walk returns — it
	// copies every string and slice out — and it is what keeps a warm
	// Get's allocation cost at the compressed size, not the inflated
	// one.
	decodeBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}
)

// maxCanonicalBytes bounds the inflated v3 body: how far a container
// may inflate, the body size its header may claim, and the largest
// body the encoder renders. A full-scale campaign body is low
// megabytes, so 256 MiB is a safety rail, not a working limit. Without
// it a crafted gzip bomb (deflate approaches 1032:1) arriving through
// PutRaw or a client Get body would balloon a bounded compressed
// payload into gigabytes of decode buffer. A variable so tests do not
// have to inflate or encode 256 MiB to cross it.
var maxCanonicalBytes int64 = 256 << 20

// maxPooledScratch caps the encode and decode scratch buffers the
// pools retain; a pathological blob's oversized buffer is dropped for
// GC instead of pinning its memory in the pool forever.
const maxPooledScratch = 8 << 20

func putDecodeBuf(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledScratch {
		decodeBufs.Put(buf)
	}
}

// decodePasses counts every full blob parse this process has
// performed. It exists for the single-validation pipeline contract:
// tests instrument it to prove that a warm remote Get decodes the wire
// bytes exactly once before they land in the local tier verbatim.
var decodePasses atomic.Int64

// DecodePasses returns the number of blob parses performed so far —
// an instrumentation hook, not an operational counter.
func DecodePasses() int64 { return decodePasses.Load() }

// parseBlob validates v3 container bytes against the digest they are
// stored (or addressed) under and returns the header beside the
// decoded result. The gzip stream is inflated through a pooled reader
// into a pooled scratch buffer — the full inflate-before-parse is what
// verifies the gzip CRC, so a truncated or bit-flipped stream whose
// prefix still deflates can never be served — and the bounds-checked
// binary walk runs over that recycled buffer, keeping a warm decode's
// allocations proportional to the compressed size. Any mismatch — a
// missing magic, a broken gzip stream or checksum, a malformed binary
// section, schema drift, a body whose size field lies, a blob renamed
// onto the wrong digest, trailing garbage — wraps ErrInvalidBlob;
// callers treat it as a cache miss and recompute.
func parseBlob(data []byte, digest string) (blobHeader, *core.Result, error) {
	decodePasses.Add(1)
	invalid := func(cause error) error {
		return fmt.Errorf("store: blob %s: %w: %v", digest, ErrInvalidBlob, cause)
	}
	if !hasV3Magic(data) {
		return blobHeader{}, nil, invalid(errors.New("not a v3 container"))
	}
	buf, err := inflateV3(data)
	if err != nil {
		return blobHeader{}, nil, invalid(err)
	}
	h, res, err := decodeV3Body(buf.Bytes())
	n := int64(buf.Len())
	putDecodeBuf(buf)
	switch {
	case err != nil:
		return blobHeader{}, nil, invalid(err)
	case h.Schema != SchemaVersion:
		return blobHeader{}, nil, invalid(fmt.Errorf("schema %d, want %d", h.Schema, SchemaVersion))
	case h.BodySize != n:
		return blobHeader{}, nil, invalid(fmt.Errorf("size field %d, body is %d bytes", h.BodySize, n))
	case h.Digest != digest:
		return blobHeader{}, nil, fmt.Errorf("store: %w: blob digest %s does not match key %s",
			ErrInvalidBlob, h.Digest, digest)
	}
	return h, res, nil
}

// ValidateBlob parses and validates v3 container bytes against a digest
// and returns the decoded result. The network client runs every
// response body through it, so a truncated or tampered transfer is a
// miss (and a recompute), never a wrong result. Callers that go on to
// store the bytes should use ValidateBlobBytes instead, which keeps the
// validated bytes and the decoded result together.
func ValidateBlob(data []byte, digest string) (*core.Result, error) {
	_, res, err := parseBlob(data, digest)
	return res, err
}
