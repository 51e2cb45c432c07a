// Command placerd serves analog placement over HTTP: clients POST netlist
// JSON to /v1/jobs, poll job status, stream per-iteration solver telemetry
// as NDJSON, and fetch the finished placement (byte-identical to what
// cmd/placer writes for the same netlist, method, and seed). Jobs run on a
// bounded worker pool fed by a multi-tenant fair scheduler: submissions
// carry a tenant and a priority class (interactive before batch), tenants
// within a class share the workers by inverse-circuit-size weighted fair
// queuing, and per-tenant quotas (-tenant-quota) plus the global queue
// bound (-queue) shed overload with structured 429s instead of collapsing
// under it. Completed placements are kept in a content-addressed result
// cache (-cache-bytes): determinism makes them perfectly reusable, so an
// identical resubmission returns byte-identical results without a solve.
// SIGINT/SIGTERM triggers a graceful drain: new submissions are refused,
// running jobs finish (up to -drain-timeout), and a second signal aborts
// the stragglers.
//
// Profiling: -pprof-addr starts a second HTTP listener serving only
// net/http/pprof (/debug/pprof/...). It is off by default and deliberately a
// separate listener so the profiling surface is never exposed on the public
// service port; bind it to localhost and use `go tool pprof
// http://localhost:6060/debug/pprof/profile` against a running daemon.
//
// Usage:
//
//	placerd [-addr :8080] [-workers N] [-queue N] [-job-timeout D] [-pprof-addr localhost:6060]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/service"
)

func main() {
	log.SetFlags(log.LstdFlags)
	log.SetPrefix("placerd: ")
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", runtime.NumCPU(), "solver worker pool size")
	threads := flag.Int("threads", runtime.NumCPU(), "how many of a job's SA chains may run at once, for requests that set no threads count; eplace-a and prev run single-threaded (results are bit-identical at any count)")
	queueCap := flag.Int("queue", 64, "queued-job capacity; beyond it submissions get 429")
	tenantQuota := flag.Int("tenant-quota", 0, "max in-flight jobs (queued+running) per tenant; beyond it that tenant's submissions get 429 (0 = unlimited)")
	cacheBytes := flag.Int64("cache-bytes", 256<<20, "content-addressed result cache size in bytes, LRU-evicted (0 = caching off)")
	maxBody := flag.Int64("max-body", service.DefaultMaxBody, "request body size limit in bytes")
	jobTimeout := flag.Duration("job-timeout", 0, "default per-job deadline when the request sets none (0 = no limit)")
	drainTimeout := flag.Duration("drain-timeout", 2*time.Minute, "how long a graceful shutdown waits for running jobs")
	pprofAddr := flag.String("pprof-addr", "", "listen address for the net/http/pprof profiling endpoint (empty = disabled; bind to localhost)")
	verbose := flag.Bool("v", false, "log every job submission and completion")
	flag.Parse()

	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			log.Fatalf("pprof listen: %v", err)
		}
		log.Printf("pprof on http://%s/debug/pprof/", pln.Addr())
		go func() {
			// An explicit mux (not DefaultServeMux) so the profiling
			// listener serves pprof and nothing else.
			mux := http.NewServeMux()
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
			if err := http.Serve(pln, mux); err != nil {
				log.Printf("pprof serve: %v", err)
			}
		}()
	}

	mgr := service.NewManager(service.Config{
		Workers:        *workers,
		QueueCap:       *queueCap,
		TenantQuota:    *tenantQuota,
		CacheBytes:     *cacheBytes,
		DefaultTimeout: *jobTimeout,
		Threads:        *threads,
	})
	srv := service.NewServer(mgr, *maxBody)

	httpSrv := &http.Server{Handler: logMiddleware(srv.Handler(), *verbose)}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	quotaDesc := "unlimited"
	if *tenantQuota > 0 {
		quotaDesc = fmt.Sprintf("%d", *tenantQuota)
	}
	cacheDesc := "off"
	if *cacheBytes > 0 {
		cacheDesc = fmt.Sprintf("%d MiB", *cacheBytes>>20)
	}
	log.Printf("serving on %s (%d workers, queue capacity %d, tenant quota %s, result cache %s)",
		ln.Addr(), mgr.Health().Workers, *queueCap, quotaDesc, cacheDesc)

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	select {
	case err := <-serveErr:
		log.Fatalf("serve: %v", err)
	case s := <-sig:
		log.Printf("received %v; draining (running jobs finish, new submissions refused)", s)
	}

	// Drain in the background so a second signal can cut it short.
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancelDrain()
	drained := make(chan error, 1)
	go func() { drained <- mgr.Drain(drainCtx) }()

	select {
	case err := <-drained:
		if err != nil {
			log.Printf("drain: %v; aborting remaining jobs", err)
			mgr.Abort()
		}
	case s := <-sig:
		log.Printf("received second %v; aborting remaining jobs", s)
		mgr.Abort()
		<-drained
	}

	// The manager is quiet; now close HTTP so late pollers can still fetch
	// results during the drain but the process exits promptly after it.
	shutCtx, cancelShut := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelShut()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("http shutdown: %v", err)
	}
	done, failed, canceled, rejected := mgr.Totals()
	log.Printf("shut down: %d jobs completed, %d failed, %d canceled, %d rejected",
		done, failed, canceled, rejected)
}

// logMiddleware optionally logs each request line after it is served.
func logMiddleware(next http.Handler, verbose bool) http.Handler {
	if !verbose {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		log.Printf("%s %s (%s)", r.Method, r.URL.Path, fmtDuration(time.Since(start)))
	})
}

func fmtDuration(d time.Duration) string {
	if d < time.Second {
		return d.Round(time.Microsecond).String()
	}
	return fmt.Sprintf("%.2fs", d.Seconds())
}
