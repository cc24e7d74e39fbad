// Command stored serves a campaign store directory over HTTP, so fleets
// spanning hosts share one content-addressed store: blobs, the
// compare-and-swap lease protocol, the index, and GC all travel the
// small versioned API in internal/storenet. Point clients at it with
// `experiments -store-url http://host:8417` (optionally adding a local
// `-cache-dir` write-through tier per host).
//
// Usage:
//
//	stored -dir DIR [-addr HOST:PORT] [-stats-every D]
//	       [-gc-every D] [-gc-watermark-bytes N] [-max-store-age D]
//	       [-drain-grace D] [-tokens FILE] [-cert FILE -key FILE]
//	       [-log-level debug|info|warn|error]
//
// With -tokens, the daemon is multi-tenant: every /v1 request must
// carry an Authorization: Bearer token from the file, which grants a
// scope (read/write/admin), optional per-token rate and byte quotas
// (throttled requests get 429 + Retry-After), and an optional validity
// window (nbf=/expires=, RFC 3339): a token used before its nbf or at
// or past its expires is rejected 401 exactly like an unknown one.
// /healthz, /readyz, and /metrics always answer without a token —
// probes and scrapers are unauthenticated by design. SIGHUP re-reads
// the -tokens file and swaps the credential set in place — no listener
// drop, no probe blip; a file that fails to parse is logged and the
// previous tokens stay in force. Expiry plus SIGHUP is the rotation
// story: ship the successor token early with nbf at the cutover, give
// the old token an expires shortly after, reload once, and each
// credential activates and lapses on schedule.
// With -cert/-key the daemon serves HTTPS.
// GET /metrics exports Prometheus-format store gauges and per-endpoint
// request/latency histograms.
//
// The directory is an ordinary internal/store directory: local
// processes may keep sharing it by path while remote clients go through
// the daemon — both coordinate through the same blob and lease files
// (the blob files are the index; there is no journal).
// With -gc-every, the daemon garbage-collects its store in the
// background: every period it evicts least-recently-used blobs past
// -gc-watermark-bytes and blobs idle longer than -max-store-age, and
// sweeps crash debris (orphaned staging files, expired leases).
// With -stats-every, the daemon periodically logs one /v1/stats-backed
// line — blob count, on-disk and raw bytes with the compression ratio,
// traffic counters, lease churn, and the p50/p99 request-latency
// estimates — so fleet health is visible from the daemon's log without
// shelling into the store host.
//
// All daemon output is structured log/slog text (key=value); -log-level
// debug adds one line per /v1 request carrying the method, path,
// status, latency, and the client's trace ID when the request carried a
// W3C traceparent header. The same records (the last 256) are served as
// JSON from GET /debug/ops, and Go runtime profiles from
// GET /debug/pprof/... — both admin-scoped when -tokens is set, so
// profiling a production daemon needs an admin credential but never a
// restart.
//
// The daemon serves k8s-style probes outside the versioned API:
// GET /healthz is liveness (the process answers), GET /readyz is
// readiness (the store directory accepts writes and the daemon is not
// draining). On SIGINT/SIGTERM it exits cleanly: readiness flips to 503
// immediately, the optional -drain-grace window lets balancers route
// traffic away, then in-flight requests finish before the listener
// closes. State lives entirely in the store directory, so a
// restarted daemon resumes where the last one stopped — even leases
// granted by the previous incarnation renew correctly (the lease token
// is verified against the on-disk file, not an in-memory table).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"golatest/internal/store"
	"golatest/internal/storenet"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	d, err := newDaemon(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stored:", err)
		os.Exit(2)
	}
	if err := d.serve(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "stored:", err)
		os.Exit(1)
	}
}

// daemon is one configured stored instance; split from main so tests
// drive it against a loopback listener and a cancellable context.
type daemon struct {
	st         *store.Store
	srv        *storenet.Server
	ln         net.Listener
	gcEvery    time.Duration
	statsEvery time.Duration
	drainGrace time.Duration
	policy     store.GCPolicy
	certFile   string // with keyFile: serve TLS
	keyFile    string
	auth       *storenet.TokenSet // nil = open mode
	tokensPath string             // re-read on SIGHUP

	// log is the daemon's structured logger (slog text lines on the
	// configured output). The handler serializes concurrent records, so
	// the GC/stats loops need no extra locking.
	log *slog.Logger
}

// newDaemon parses flags, opens the store, and binds the listener —
// everything that can fail fast does so here, before main commits to
// serving.
func newDaemon(args []string, out io.Writer) (*daemon, error) {
	fs := flag.NewFlagSet("stored", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		dir        = fs.String("dir", "", "store directory to serve (required; created if missing)")
		addr       = fs.String("addr", "127.0.0.1:8417", "listen address (use :0 for an ephemeral port; the chosen address is printed)")
		gcEvery    = fs.Duration("gc-every", 0, "period of the background GC pass over the served store (0 = no background GC)")
		watermark  = fs.Int64("gc-watermark-bytes", 0, "with -gc-every: evict least-recently-used blobs until the store fits this many bytes (0 = no size bound)")
		maxAge     = fs.Duration("max-store-age", 0, "with -gc-every: evict blobs not accessed for longer than this (0 = no age bound)")
		statsEvery = fs.Duration("stats-every", 0, "period of the stats log line (blobs, bytes, compression ratio, traffic, lease churn; 0 = off)")
		drainGrace = fs.Duration("drain-grace", 0, "on SIGINT/SIGTERM, keep serving for this long with /readyz answering 503 before shutting down (lets load balancers route traffic away; 0 = drain immediately)")
		tokens     = fs.String("tokens", "", "bearer-token file enabling multi-tenant auth: one '<token> <scopes> [rps=N] [burst=N] [bps=N] [bburst=N] [nbf=RFC3339] [expires=RFC3339]' per line (scopes: read, write, admin; nbf/expires bound the token's validity window; empty = open mode)")
		certFile   = fs.String("cert", "", "TLS certificate file (PEM); with -key, serve HTTPS")
		keyFile    = fs.String("key", "", "TLS private key file (PEM); with -cert, serve HTTPS")
		logLevel   = fs.String("log-level", "info", "minimum log level: debug, info, warn, error (debug adds a per-request line carrying the client's trace ID)")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if *dir == "" {
		return nil, fmt.Errorf("-dir is required")
	}
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(*logLevel)); err != nil {
		return nil, fmt.Errorf("-log-level %q: want debug, info, warn, or error", *logLevel)
	}
	if (*watermark > 0 || *maxAge > 0) && *gcEvery <= 0 {
		return nil, fmt.Errorf("-gc-watermark-bytes/-max-store-age need -gc-every to schedule the pass")
	}
	if (*certFile == "") != (*keyFile == "") {
		return nil, fmt.Errorf("-cert and -key must be given together")
	}
	var auth *storenet.TokenSet
	if *tokens != "" {
		var err error
		if auth, err = storenet.LoadTokens(*tokens); err != nil {
			return nil, err
		}
	}
	st, err := store.Open(*dir)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return nil, err
	}
	logger := slog.New(slog.NewTextHandler(out, &slog.HandlerOptions{Level: lvl}))
	return &daemon{
		st:         st,
		srv:        storenet.NewServerWith(st, storenet.ServerOptions{Auth: auth, Logger: logger}),
		ln:         ln,
		gcEvery:    *gcEvery,
		statsEvery: *statsEvery,
		drainGrace: *drainGrace,
		policy:     store.GCPolicy{MaxBytes: *watermark, MaxAge: *maxAge},
		certFile:   *certFile,
		keyFile:    *keyFile,
		auth:       auth,
		tokensPath: *tokens,
		log:        logger,
	}, nil
}

// URL returns the served base URL — what clients pass as -store-url.
func (d *daemon) URL() string {
	scheme := "http"
	if d.certFile != "" {
		scheme = "https"
	}
	return scheme + "://" + d.ln.Addr().String()
}

// serve runs the daemon until the context is cancelled, then drains
// in-flight requests and returns nil.
func (d *daemon) serve(ctx context.Context) error {
	srv := &http.Server{Handler: d.srv}
	d.log.Info("serving",
		"dir", d.st.Dir(), "url", d.URL(),
		"api", storenet.APIVersion, "blobs", d.st.Len())
	if d.auth != nil {
		d.log.Info("auth tokens loaded", "count", d.auth.Len())
	}
	if d.gcEvery > 0 {
		go d.gcLoop(ctx)
	}
	if d.statsEvery > 0 {
		go d.statsLoop(ctx)
	}
	if d.tokensPath != "" {
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		defer signal.Stop(hup)
		go d.reloadLoop(ctx, hup)
	}
	errc := make(chan error, 1)
	go func() {
		if d.certFile != "" {
			errc <- srv.ServeTLS(d.ln, d.certFile, d.keyFile)
		} else {
			errc <- srv.Serve(d.ln)
		}
	}()
	select {
	case <-ctx.Done():
		// Two-phase drain: flip readiness first so probes and balancers
		// stop sending new traffic, keep serving through the grace
		// window, then Shutdown — which itself waits for in-flight
		// requests before closing.
		d.srv.SetDraining(true)
		if d.drainGrace > 0 {
			d.log.Info("draining", "grace", d.drainGrace)
			time.Sleep(d.drainGrace)
		}
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(shutdownCtx)
		<-errc // always http.ErrServerClosed after Shutdown
		d.log.Info("shut down")
		return nil
	case err := <-errc:
		return err
	}
}

// reloadLoop re-reads the -tokens file on every SIGHUP and swaps the
// server's credential set atomically — credential rotation without a
// restart. The listener never drops and in-flight requests finish
// under the set that admitted them, so probes and balancers see
// nothing. A file that fails to load (deleted, malformed line) is
// logged and the previous tokens stay in force: a botched rotation
// must not lock the fleet out.
func (d *daemon) reloadLoop(ctx context.Context, hup <-chan os.Signal) {
	for {
		select {
		case <-ctx.Done():
			return
		case <-hup:
			ts, err := storenet.LoadTokens(d.tokensPath)
			if err != nil {
				d.log.Warn("auth reload failed, keeping previous tokens", "error", err)
				continue
			}
			d.srv.SetAuth(ts)
			d.log.Info("auth reloaded", "count", ts.Len(), "path", d.tokensPath)
		}
	}
}

// statsLoop logs one store-health line per period: what an operator
// would otherwise curl from /v1/stats, in the daemon's own log.
func (d *daemon) statsLoop(ctx context.Context) {
	t := time.NewTicker(d.statsEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			d.logStats()
		}
	}
}

// logStats emits the periodic health line — the /v1/stats snapshot,
// structured (storenet.Server.Stats is the single assembly point). The
// latency quantiles are the server's histogram-bucket estimates across
// all endpoints since start.
func (d *daemon) logStats() {
	st := d.srv.Stats()
	c, ls := st.Counters, st.Leases
	d.log.Info("stats",
		"blobs", st.Blobs, "bytes", st.Bytes, "raw_bytes", st.RawBytes,
		"compression", st.CompressionRatio,
		"hits", c.Hits, "misses", c.Misses, "puts", c.Puts, "corrupt", c.Corrupt,
		"acquired", ls.Acquired, "stolen", ls.Stolen, "busy", ls.Busy,
		"renewed", ls.Renewed, "released", ls.Released,
		"p50", time.Duration(st.LatencyP50Ns), "p99", time.Duration(st.LatencyP99Ns))
}

// gcLoop applies the daemon's GC policy on a timer. Every pass at least
// sweeps crash debris; the size/age bounds evict per the policy. Only
// passes that did something are logged.
func (d *daemon) gcLoop(ctx context.Context) {
	t := time.NewTicker(d.gcEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			gs, err := d.st.GC(d.policy)
			if err != nil {
				d.log.Warn("gc failed", "error", err)
				continue
			}
			if gs.Evicted > 0 || gs.TmpRemoved > 0 || gs.LeasesRemoved > 0 {
				d.log.Info("gc",
					"evicted", gs.Evicted, "scanned", gs.Scanned,
					"bytes_before", gs.BytesBefore, "bytes_after", gs.BytesAfter,
					"tmp_swept", gs.TmpRemoved, "leases_swept", gs.LeasesRemoved)
			}
		}
	}
}
