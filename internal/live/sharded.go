package live

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"time"

	"pqtls/internal/obs"
	"pqtls/internal/tls13"
)

// ShardedServer fans the accept path out over N independent shards, each a
// full Server runtime with its own accept goroutine and connection limiter.
// On Linux every shard owns an SO_REUSEPORT listener on the same address —
// the kernel spreads incoming connections across the accept queues — and
// elsewhere the shards share one listener, which still removes the
// single-accept-goroutine bottleneck even though the queue stays shared.
//
// Cross-shard state is shared by construction, not merged after the fact:
// one ticket store (a ticket issued on shard 0 resumes on shard 3), one
// signing context, and one obs.Registry whose idempotent registration makes
// every shard's counters the same atomic instruments. Snapshot-time
// "merging" is therefore just a union of the lazily-discovered failure
// classes.
type ShardedServer struct {
	shards  []*Server
	lns     []net.Listener
	tickets *tls13.TicketStore
	reg     *obs.Registry
}

// ServeSharded starts shards accept runtimes on addr (0 = GOMAXPROCS) and
// returns once all are accepting. The per-shard connection limit is
// MaxConns/shards (rounded up), preserving the aggregate bound.
func ServeSharded(addr string, opts Options, shards int) (*ShardedServer, error) {
	if opts.Config == nil {
		return nil, errors.New("live: Options.Config is required")
	}
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	if opts.MaxConns <= 0 {
		opts.MaxConns = 256
	}

	// Resolve the shared pieces once, then hand every shard the same
	// objects through a single config copy.
	cfg, err := resolveConfig(opts.Config)
	if err != nil {
		return nil, err
	}
	opts.Config = cfg
	reg := opts.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	opts.Registry = reg
	if opts.Timeline == nil && opts.WindowInterval > 0 {
		// One shared timeline across shards, like the registry: windows are
		// fleet-wide from the start, no post-hoc merge step.
		opts.Timeline = obs.NewTimeline(opts.WindowInterval)
	}

	lns, err := shardListeners(addr, shards)
	if err != nil {
		return nil, err
	}

	perShard := opts.MaxConns / shards
	if opts.MaxConns%shards != 0 {
		perShard++
	}

	ss := &ShardedServer{lns: lns, tickets: cfg.Tickets, reg: reg}
	for i := 0; i < shards; i++ {
		so := opts
		so.MaxConns = perShard
		if i > 0 {
			so.MetricsAddr = "" // one scrape endpoint, on shard 0
		}
		srv, err := Serve(lns[i], so)
		if err != nil {
			ss.Shutdown(time.Second)
			for _, l := range lns {
				l.Close() // unstarted shards' listeners aren't owned yet
			}
			return nil, fmt.Errorf("live: shard %d: %w", i, err)
		}
		ss.shards = append(ss.shards, srv)
	}
	return ss, nil
}

// shardListeners binds one listener per shard via SO_REUSEPORT where the
// platform has it, else one shared listener handed to every shard.
func shardListeners(addr string, shards int) ([]net.Listener, error) {
	lns := make([]net.Listener, 0, shards)
	if shards > 1 && reusePortAvailable {
		ln0, err := listenReusePort(addr)
		if err != nil {
			return nil, fmt.Errorf("live: shard listener: %w", err)
		}
		lns = append(lns, ln0)
		// Rebind the resolved address so ":0" shards land on one port.
		bound := ln0.Addr().String()
		for i := 1; i < shards; i++ {
			ln, err := listenReusePort(bound)
			if err != nil {
				for _, l := range lns {
					l.Close()
				}
				return nil, fmt.Errorf("live: shard listener %d: %w", i, err)
			}
			lns = append(lns, ln)
		}
		return lns, nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("live: listener: %w", err)
	}
	for i := 0; i < shards; i++ {
		lns = append(lns, ln)
	}
	return lns, nil
}

// Shards reports how many accept shards are running.
func (ss *ShardedServer) Shards() int { return len(ss.shards) }

// Addr returns the shared serving address (all shards bind one port).
func (ss *ShardedServer) Addr() net.Addr { return ss.lns[0].Addr() }

// MetricsAddr returns shard 0's metrics listener address, or nil.
func (ss *ShardedServer) MetricsAddr() net.Addr {
	if len(ss.shards) == 0 {
		return nil
	}
	return ss.shards[0].MetricsAddr()
}

// Registry returns the registry shared by every shard.
func (ss *ShardedServer) Registry() *obs.Registry { return ss.reg }

// Timeline returns the windowed timeline shared by every shard, or nil when
// windowed telemetry was not enabled.
func (ss *ShardedServer) Timeline() *obs.Timeline { return ss.shards[0].Timeline() }

// TicketStats exposes the shared ticket store's counters.
func (ss *ShardedServer) TicketStats() tls13.TicketStats { return ss.tickets.Stats() }

// Counters returns the merged snapshot. The shards share one registry, so
// every scalar is already the cross-shard total; only the lazily-registered
// failure classes need a union, since each shard discovers classes
// independently.
func (ss *ShardedServer) Counters() Counters {
	out := ss.shards[0].Counters()
	for _, s := range ss.shards[1:] {
		for class, v := range s.Counters().Failed {
			out.Failed[class] = v
		}
	}
	return out
}

// Shutdown drains every shard concurrently within the shared grace window.
// The first shard error is returned.
func (ss *ShardedServer) Shutdown(grace time.Duration) error {
	errCh := make(chan error, len(ss.shards))
	for _, s := range ss.shards {
		go func(s *Server) { errCh <- s.Shutdown(grace) }(s)
	}
	var first error
	for range ss.shards {
		if err := <-errCh; err != nil && first == nil {
			first = err
		}
	}
	// All shards hold the same listener in the fallback layout; Close is
	// idempotent there.
	return first
}
