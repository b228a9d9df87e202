package serve

import (
	"context"
	"net"
	"net/http"
	"time"
)

// Service is what a Daemon serves: a Frontend over its executor
// (serve.Server for imtd, cluster.Gateway for imtgw).
type Service interface {
	Handler() http.Handler
	SetDraining(bool)
	// Drain stops the service's background work once the HTTP side is
	// quiet, bounded by ctx.
	Drain(ctx context.Context) error
}

// Daemon is a Service bound to a socket with a graceful-drain shutdown
// path. cmd/imtd and cmd/imtgw are thin flag wrappers around it; tests
// drive it directly.
type Daemon struct {
	svc  Service
	http *http.Server
	ln   net.Listener
}

// Listen binds addr (":0" picks a free port) and returns the daemon
// without serving yet; Addr is valid immediately, so callers can
// advertise the bound port before Run starts.
func Listen(addr string, svc Service) (*Daemon, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Daemon{
		svc: svc,
		http: &http.Server{
			Handler:           svc.Handler(),
			ReadHeaderTimeout: 10 * time.Second,
		},
		ln: ln,
	}, nil
}

// Addr returns the bound address (host:port).
func (d *Daemon) Addr() string { return d.ln.Addr().String() }

// Run serves until ctx is done — the caller's signal context, created
// before Listen so that a signal arriving any time after the port is
// reachable drains — then drains within grace: the service flips to
// draining (new requests get 503 + Retry-After until the listener
// closes), the listener stops accepting, in-flight requests (streaming
// sweeps included) run to completion, and the service's Drain stops
// its background work. Run returns once all of that is done, so the
// caller can flush metrics and the run manifest. If grace expires
// first, remaining connections are severed and the deadline error is
// returned; a listener failure before ctx is done returns at once.
func (d *Daemon) Run(ctx context.Context, grace time.Duration) error {
	served := make(chan error, 1)
	go func() { served <- d.http.Serve(d.ln) }()
	select {
	case err := <-served:
		return err
	case <-ctx.Done():
	}
	d.svc.SetDraining(true)
	drainCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	err := d.http.Shutdown(drainCtx)
	if err != nil {
		_ = d.http.Close()
	}
	if serr := <-served; err == nil && serr != http.ErrServerClosed {
		err = serr
	}
	if derr := d.svc.Drain(drainCtx); err == nil {
		err = derr
	}
	return err
}
