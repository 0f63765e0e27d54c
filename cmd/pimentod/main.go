// Command pimentod is PIMENTO's HTTP search daemon: it indexes one or
// more XML documents and serves personalized search over a JSON API.
//
//	pimentod -addr :8080 -doc cars=cars.xml -doc auction=xmark.xml
//	pimentod -addr :8080 -xmark 512K            # generate a demo document
//
//	curl -s localhost:8080/search -d '{"doc":"cars","query":"//car[price < 2000]","k":5}'
//	curl -s localhost:8080/healthz
//	curl -s localhost:8080/statsz
//
// Endpoints: POST /search, POST /explain, POST /lint (profile vet
// diagnostics), PUT/DELETE /docs/{name} (live corpus mutation — the
// body of a PUT is the raw XML document; -max-doc-bytes bounds it),
// GET /docs, GET /watch (long-poll mutation feed; -watch-buffer sizes
// its replay window), GET /healthz, GET /statsz, GET /metrics
// (Prometheus text exposition).
// Per-request deadlines come from the request's timeout_ms field,
// bounded by -timeout; repeated identical requests are answered from a
// single-flight LRU result cache, and profile/query analysis verdicts
// from a shared memoized analysis cache. Fresh executions are admitted
// through a bounded worker pool (-pool, -pool-queue, -pool-max-wait;
// DESIGN.md §9) that sheds overload with 503/429 + Retry-After instead
// of oversubscribing the CPU.
// -slow-query enables the slow-query log; -debug-addr serves
// net/http/pprof on a separate listener for profiling (see `make
// profile`). SIGINT/SIGTERM drain in-flight requests before exit
// (graceful shutdown).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/server"
	"repro/internal/text"
	"repro/internal/xmark"
	"repro/internal/xmldoc"
)

// idleTimeout closes a keep-alive connection that has carried no request
// for this long, on both listeners; without it an idle client holds its
// connection (and its goroutine) for as long as it likes.
const idleTimeout = 2 * time.Minute

// docFlags collects repeated -doc name=path (or bare path) arguments.
type docFlags []string

func (d *docFlags) String() string     { return strings.Join(*d, ",") }
func (d *docFlags) Set(s string) error { *d = append(*d, s); return nil }

func main() {
	var docs docFlags
	flag.Var(&docs, "doc", "document to serve, as name=path.xml (repeatable; bare path uses the file stem as name)")
	addr := flag.String("addr", ":8080", "listen address")
	xmarkSize := flag.String("xmark", "", "additionally serve a generated XMark document of ~this size (e.g. 512K, 4M) under the name \"xmark\"")
	timeout := flag.Duration("timeout", 30*time.Second, "default per-request deadline (0 disables)")
	cacheSize := flag.Int("cache", 512, "result cache capacity in entries")
	stem := flag.Bool("stem", true, "apply Porter stemming while indexing")
	stopwords := flag.Bool("stopwords", false, "drop English stopwords while indexing")
	slowQuery := flag.Duration("slow-query", 0, "log queries at least this slow, with plan and per-operator stats (0 disables)")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty disables)")
	pool := flag.Int("pool", 0, "admission scheduler worker count: concurrent search executions (0 = GOMAXPROCS)")
	poolQueue := flag.Int("pool-queue", 0, "admission waiting-room capacity; beyond it requests are shed with 503 (0 = 64×workers; negative = no waiting room)")
	poolMaxWait := flag.Duration("pool-max-wait", 0, "shed requests queued longer than this with 429 (0 disables the bound)")
	maxDocBytes := flag.String("max-doc-bytes", "64M", "largest document body PUT /docs/{name} accepts (e.g. 512K, 64M)")
	watchBuffer := flag.Int("watch-buffer", 256, "mutations GET /watch retains for since-cursor replay")
	flag.Parse()

	if len(docs) == 0 && *xmarkSize == "" {
		// A document-less start is fine now that the corpus is live:
		// clients populate it with PUT /docs/{name}.
		log.Printf("starting with an empty corpus (populate with PUT /docs/{name})")
	}
	maxDoc, err := xmark.ParseSize(*maxDocBytes)
	if err != nil || maxDoc <= 0 {
		fmt.Fprintf(os.Stderr, "pimentod: bad -max-doc-bytes %q (want e.g. 512K, 64M)\n", *maxDocBytes)
		os.Exit(2)
	}
	if *pool < 0 {
		fmt.Fprintf(os.Stderr, "pimentod: bad -pool %d (want a worker count, or 0 for GOMAXPROCS)\n", *pool)
		os.Exit(2)
	}
	if *cacheSize < 1 {
		fmt.Fprintf(os.Stderr, "pimentod: bad -cache %d (want at least 1 entry)\n", *cacheSize)
		os.Exit(2)
	}
	if *watchBuffer < 1 {
		fmt.Fprintf(os.Stderr, "pimentod: bad -watch-buffer %d (want at least 1 mutation)\n", *watchBuffer)
		os.Exit(2)
	}
	for _, d := range []struct {
		name string
		v    time.Duration
	}{{"timeout", *timeout}, {"slow-query", *slowQuery}, {"pool-max-wait", *poolMaxWait}} {
		if d.v < 0 {
			fmt.Fprintf(os.Stderr, "pimentod: bad -%s %s (want a positive duration, or 0 to disable)\n", d.name, d.v)
			os.Exit(2)
		}
	}
	xmarkBytes := 0
	if *xmarkSize != "" {
		if xmarkBytes, err = xmark.ParseSize(*xmarkSize); err != nil || xmarkBytes <= 0 {
			fmt.Fprintf(os.Stderr, "pimentod: bad -xmark size %q (want e.g. 512K, 4M)\n", *xmarkSize)
			os.Exit(2)
		}
	}

	srv := server.New(server.Config{
		Pipeline:           text.Pipeline{Stem: *stem, DropStopwords: *stopwords},
		CacheSize:          *cacheSize,
		DefaultTimeout:     *timeout,
		SlowQueryThreshold: *slowQuery,
		PoolWorkers:        *pool,
		PoolQueue:          *poolQueue,
		PoolMaxWait:        *poolMaxWait,
		MaxDocBytes:        int64(maxDoc),
		WatchBuffer:        *watchBuffer,
	})
	defer srv.Close()

	for _, spec := range docs {
		name, path, ok := strings.Cut(spec, "=")
		if !ok {
			path = spec
			name = strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
		}
		f, err := os.Open(path)
		if err != nil {
			log.Fatalf("pimentod: %v", err)
		}
		doc, err := xmldoc.Parse(f)
		f.Close()
		if err != nil {
			log.Fatalf("pimentod: %s: %v", path, err)
		}
		srv.Add(name, doc)
		log.Printf("indexed %s (%d nodes) as %q", path, doc.Len(), name)
	}
	if xmarkBytes > 0 {
		doc := xmark.GenerateSized(xmark.Config{Seed: 42}, xmarkBytes)
		srv.Add("xmark", doc)
		log.Printf("generated xmark document (%d nodes) as %q", doc.Len(), "xmark")
	}

	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       idleTimeout,
	}

	// The pprof listener is deliberately separate from the serving
	// address: profiles stay off the public API surface, and a wedged
	// serving mux cannot take the debug endpoints down with it.
	if *debugAddr != "" {
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			log.Printf("pprof listening on %s", *debugAddr)
			ds := &http.Server{Addr: *debugAddr, Handler: dmux, ReadHeaderTimeout: 10 * time.Second, IdleTimeout: idleTimeout}
			if err := ds.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("pprof server: %v", err)
			}
		}()
	}

	// Graceful shutdown: stop accepting, drain in-flight requests (their
	// own deadlines bound the drain), then exit.
	idle := make(chan struct{})
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
		<-sig
		log.Printf("shutting down: draining in-flight requests")
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
		close(idle)
	}()

	log.Printf("pimentod listening on %s (%d documents, cache %d entries, default timeout %s, pool %d workers)",
		*addr, len(srv.Docs()), *cacheSize, *timeout, srv.Pool().Workers())
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("pimentod: %v", err)
	}
	<-idle
	log.Printf("bye")
}
