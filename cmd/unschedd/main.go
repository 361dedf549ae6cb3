// Command unschedd runs the scheduling-as-a-service daemon: the
// repository's schedulers, simulator, and campaign engine behind a
// long-running HTTP JSON API with a content-addressed schedule cache.
//
// Usage:
//
//	unschedd [-addr :8080] [-workers 0] [-queue 0] [-cache 4096]
//	         [-cache-dir DIR] [-quality-db FILE] [-campaigns 2]
//	         [-peers URL,URL,...] [-self URL] [-peer-budget 75ms]
//	         [-pprof-addr ADDR]
//
// Endpoints (see internal/service for the wire formats):
//
//	POST /v1/schedule        matrix in, schedule out (cached)
//	POST /v1/simulate        schedule in, predicted result out (cached)
//	POST /v1/schedule/batch  many schedule requests in, NDJSON stream out
//	POST /v1/campaign        async measurement grid; poll the returned id
//	GET  /v1/campaign/{id}   campaign progress / results
//	GET  /healthz            liveness
//	GET  /metrics            Prometheus-style counters
//
// Synchronous responses are negotiable: JSON by default, the compact
// binary envelope (application/x-unsched-binary) on Accept, gzip on
// Accept-Encoding — the binary+gzip form of a 1024-node schedule is
// over 10x smaller than its JSON. Every cacheable response carries
// its content hash as a strong ETag, so If-None-Match revalidation
// costs zero body bytes (304), and error bodies carry stable
// machine-readable codes in error_v2 next to the legacy message. The
// README's wire-format section documents the full contract; the
// unsched CLI's -server/-binary/-batch flags exercise it.
//
// The daemon sheds load with 429 when its bounded queue is full and
// shuts down gracefully on SIGINT/SIGTERM: in-flight requests finish,
// running campaigns are cancelled, then the process exits.
//
// With -cache-dir, the content-addressed schedule cache is persisted
// to disk (asynchronously; the request path never waits on fsync) and
// warm-restarted on boot: a restarted daemon serves previously
// computed responses byte-identically as cache hits instead of
// re-paying every O(n^2) schedule. Corrupt or truncated records are
// skipped and counted on /metrics, never fatal.
//
// With -peers (plus -self, this daemon's own URL from the list), N
// daemons form a fleet serving one logical cache: rendezvous hashing
// assigns every content-hash key an owner, a cache miss on a
// non-owned key asks the owner for its checksummed record (with a
// hedged second probe to the next-ranked peer) before computing, and
// locally computed non-owned records are pushed to their owner in the
// background. Peer lookups are budgeted (-peer-budget); any peer
// failure falls back to local compute, so a fleet can only make a
// daemon faster, never unavailable. The internal record endpoints
// (GET/PUT /v1/cache/{key}) should stay off the public edge, like
// /metrics. See the README's "Fleet mode" section.
//
// With -quality-db, schedule requests may say "algorithm": "auto": the
// daemon resolves the tag from a calibration model built over the
// store before any cache-key fingerprinting, and every finished
// campaign appends its measurements to the store and reloads the
// model — campaigns double as the calibration training loop. Without
// the flag, "auto" still works from the committed fallback table.
//
// With -pprof-addr, a second listener serves net/http/pprof
// (/debug/pprof/...) on its own mux, so live CPU and heap profiles of
// a loaded daemon are one `go tool pprof` away. It is opt-in and
// separately addressed on purpose: the profile endpoints never share a
// port with the public API, so they can be bound to localhost while
// the API faces the network.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"unsched/internal/service"
)

// splitPeers parses the -peers list: comma-separated, blanks skipped,
// whitespace trimmed. URL validation itself lives in the fleet layer,
// which rejects a malformed member loudly at startup.
func splitPeers(csv string) []string {
	var out []string
	for _, p := range strings.Split(csv, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// The daemon's connection timeouts. They are constants, not flags:
// each bounds what a client may hold, not how long work may take.
const (
	// readHeaderTimeout bounds the request line and headers.
	readHeaderTimeout = 10 * time.Second
	// readTimeout bounds reading a whole request, body included. A body
	// may be as large as the service's 32 MiB cap, so a client must
	// send at least 280 KB/s (about 2.2 Mbit/s) to deliver the largest
	// one in time; without the bound, a client could trickle a body
	// toward the cap for as long as it liked.
	readTimeout = 2 * time.Minute
	// idleTimeout closes a keep-alive connection that sends no next
	// request; at zero it would fall back to readTimeout.
	idleTimeout = 2 * time.Minute
)

// newHTTPServer returns the daemon's HTTP server for h on addr. It
// sets no WriteTimeout: the write deadline runs from the end of the
// request headers, so it would bound the synchronous compute too, and
// a schedule on a large machine can outlast any fixed bound. A write
// bound has to wait until a compute stops when its request is
// cancelled; today an abandoned request runs to the end.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "worker goroutines; 0 means GOMAXPROCS")
	queue := flag.Int("queue", 0, "request queue depth before 429; 0 means 4x workers")
	cache := flag.Int("cache", 4096, "schedule cache entries; negative disables caching")
	cacheDir := flag.String("cache-dir", "", "directory for disk-backed cache persistence; empty keeps the cache in memory only")
	qualityDB := flag.String("quality-db", "", "quality store file calibrating algorithm \"auto\"; campaigns append to it, empty uses the committed fallback table only")
	campaigns := flag.Int("campaigns", 2, "maximum concurrently running campaigns")
	peers := flag.String("peers", "", "comma-separated base URLs of every fleet member (enables fleet mode); empty runs solo")
	self := flag.String("self", "", "this daemon's own base URL as peers reach it; required with -peers")
	peerBudget := flag.Duration("peer-budget", 0, "peer lookup budget, hedge included; 0 means 75ms")
	drain := flag.Duration("drain", 30*time.Second, "graceful shutdown deadline")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this address (e.g. localhost:6060); empty disables profiling")
	flag.Parse()

	svc, err := service.NewServer(service.Options{
		Workers:      *workers,
		QueueDepth:   *queue,
		CacheEntries: *cache,
		CacheDir:     *cacheDir,
		QualityStore: *qualityDB,
		MaxCampaigns: *campaigns,
		Peers:        splitPeers(*peers),
		SelfURL:      *self,
		PeerBudget:   *peerBudget,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "unschedd:", err)
		os.Exit(1)
	}
	httpSrv := newHTTPServer(*addr, svc)

	if *pprofAddr != "" {
		// An explicit mux rather than http.DefaultServeMux: importing
		// net/http/pprof registers its handlers globally, and serving
		// the default mux would silently expose them on any future
		// listener that does the same.
		pm := http.NewServeMux()
		pm.HandleFunc("/debug/pprof/", pprof.Index)
		pm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			fmt.Fprintf(os.Stderr, "unschedd: pprof on %s\n", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, pm); err != nil {
				fmt.Fprintln(os.Stderr, "unschedd: pprof listener:", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "unschedd: listening on %s\n", *addr)
		errCh <- httpSrv.ListenAndServe()
	}()

	select {
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "unschedd: shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			fmt.Fprintln(os.Stderr, "unschedd: forced shutdown:", err)
		}
		svc.Close()
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "unschedd:", err)
			svc.Close()
			os.Exit(1)
		}
	}
}
