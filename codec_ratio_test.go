package golatest

import (
	"testing"

	"golatest/internal/experiments"
	"golatest/internal/store"
)

// TestBlobCompressionRatio is the acceptance gate of the blob
// container's gzip layer on real data: one quick-scale A100 campaign
// persisted through the store must shrink its inflated v3 body
// (RawBytes) at least 2.5× on disk (full-scale blobs, with their longer
// sample arrays, compress better still). The logged
// blob_compression_ratio line is scraped by scripts/bench_smoke.sh
// into BENCH_campaign.json.
func TestBlobCompressionRatio(t *testing.T) {
	if testing.Short() {
		t.Skip("runs one quick A100 campaign")
	}
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := experiments.NewSuite(experiments.Options{
		Scale: experiments.ScaleQuick, Seed: 7, Store: st,
	})
	if _, err := s.CampaignByKey("a100"); err != nil {
		t.Fatal(err)
	}
	ix := st.Index()
	if len(ix) != 1 {
		t.Fatalf("store indexes %d blobs, want the one campaign", len(ix))
	}
	e := ix[0]
	if e.Bytes <= 0 || e.RawBytes <= 0 {
		t.Fatalf("entry sizes not recorded: %+v", e)
	}
	ratio := float64(e.RawBytes) / float64(e.Bytes)
	t.Logf("blob_compression_ratio=%.2f raw_bytes=%d compressed_bytes=%d", ratio, e.RawBytes, e.Bytes)
	if ratio < 2.5 {
		t.Fatalf("quick-scale blob compresses only %.2fx (%d -> %d bytes), want >= 2.5x",
			ratio, e.RawBytes, e.Bytes)
	}
}
