// Command macroflowd serves the macroflow compile flow as a
// long-running HTTP+JSON service (the api/v1 contract): a bounded
// priority queue of compile jobs drained by N concurrent worker
// sessions that share one block cache — with its persistent implcache
// layer when -cache is set — and one loaded estimator, with
// singleflight dedup of identical in-flight block implementations,
// per-job JSONL progress streams bridged from the obs spans,
// continuous background oracle audits, and graceful drain on SIGTERM
// (stop admitting, finish every accepted job, flush cache stats).
//
// The service telemetry plane is always on: GET /metrics serves the
// registry as Prometheus text (queue depth and wait, worker
// utilization, per-stage latency histograms with p50/p95/p99, cache
// hit ratios, solver health), and a bounded flight recorder keeps the
// last completed spans across all jobs in memory — a job missing the
// -slo-ms objective or failing an oracle check dumps the ring to a
// Chrome trace file in -flight-dir (GET /v1/debug/flightrecorder
// serves the same snapshot on demand). -debug-addr adds net/http/pprof
// on a separate listener.
//
//	macroflowd -addr 127.0.0.1:8080 -workers 4 -cache /var/cache/macroflow
//	curl -s localhost:8080/v1/jobs -d '{"design":{"builtin":"cnvW1A1"}}'
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"macroflow"
	"macroflow/internal/cliflags"
)

// A client has headerTimeout to send a request's headers, and an idle
// keep-alive connection is closed after idleTimeout. Neither bounds a
// response: GET /events streams for as long as its job runs, so the
// server sets no read or write timeout.
const (
	headerTimeout = 10 * time.Second
	idleTimeout   = 2 * time.Minute
)

// httpServer is the daemon's listener configuration.
func httpServer(h http.Handler, header, idle time.Duration) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: header, IdleTimeout: idle}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("macroflowd: ")
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for a random port)")
	device := flag.String("device", "xc7z020", "default target device (xc7z020, xc7z045); requests may override")
	workers := flag.Int("workers", 4, "concurrent compile worker sessions")
	queueCap := flag.Int("queue", 64, "bounded compile queue capacity (admission control)")
	cacheDir := cliflags.AddCache(flag.CommandLine, "")
	estimatorPath := flag.String("estimator", "", "estimator model file (macroflow.SaveEstimator format) served for mode \"estimator\"")
	auditEvery := flag.Duration("audit-interval", 0, "interval between background -check sampled oracle audits (0 = off)")
	tel := cliflags.AddTelemetry(flag.CommandLine)
	flag.Parse()

	cfg := serverConfig{
		Device:     *device,
		Workers:    *workers,
		QueueCap:   *queueCap,
		AuditEvery: *auditEvery,
		FlightSize: tel.FlightSize,
		SLOMs:      tel.SLOMs,
		FlightDir:  tel.FlightDir,
	}
	if tel.FlightSize == 0 {
		cfg.FlightSize = -1 // flag 0 = off; serverConfig 0 = default-on
	}
	if *cacheDir != "" {
		cache, err := macroflow.NewPersistentBlockCache(*cacheDir)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Cache = cache
		log.Printf("persistent cache at %s", *cacheDir)
	}
	if *estimatorPath != "" {
		f, err := os.Open(*estimatorPath)
		if err != nil {
			log.Fatal(err)
		}
		est, err := macroflow.LoadEstimator(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		cfg.Estimator = est
		log.Printf("estimator loaded from %s", *estimatorPath)
	}

	s := newServer(cfg)
	s.start()

	if tel.DebugAddr != "" {
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dln, err := net.Listen("tcp", tel.DebugAddr)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("pprof debug server on %s", dln.Addr())
		go func() {
			if err := http.Serve(dln, dmux); err != nil {
				log.Printf("debug server: %v", err)
			}
		}()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("listening on %s", ln.Addr())
	hs := httpServer(s.routes(), headerTimeout, idleTimeout)
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sg := <-sig:
		log.Printf("%s: draining (no new admissions; finishing accepted jobs)", sg)
	case err := <-serveErr:
		log.Fatal(err)
	}

	// Drain: the server stops admitting (503 draining), the workers
	// finish every queued and running job, and the persistent cache's
	// lifetime stats are flushed — then the HTTP listener shuts down.
	s.drain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		log.Fatal(err)
	}
	log.Printf("drained cleanly")
}
