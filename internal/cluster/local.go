package cluster

import (
	"fmt"
	"net"

	"mutps/internal/kvcore"
	"mutps/internal/netserver"
)

// LocalOptions configures an in-process local cluster: every shard's store
// is opened with Config as it stands (kvcore.Open's validation and
// defaults, so Workers and CRWorkers are required and HotItems > 0 runs
// the hot-set refresher).
type LocalOptions struct {
	kvcore.Config
	Inflight int      // per-connection server window
	Addrs    []string // listen address per shard (empty = ephemeral loopback ports)
}

// Local is an in-process shard set: N independent stores, each behind its
// own netserver listener — the multi-shard harness for tests, benchmarks,
// and single-machine cluster runs (cmd/mutps-cluster). The shards share
// nothing but the process: separate indexes, separate worker pools,
// separate arenas, so they model separate server processes up to kernel
// scheduling.
type Local struct {
	stores  []*kvcore.Store
	servers []*netserver.Server
	addrs   []string
}

// LaunchLocal starts n shards. Each listens on opt.Addrs[i] when provided
// (n addresses required then), else on an ephemeral loopback port.
func LaunchLocal(n int, opt LocalOptions) (*Local, error) {
	if n < 1 {
		return nil, fmt.Errorf("cluster: need at least one shard")
	}
	if len(opt.Addrs) != 0 && len(opt.Addrs) != n {
		return nil, fmt.Errorf("cluster: %d addrs for %d shards", len(opt.Addrs), n)
	}
	l := &Local{}
	for i := 0; i < n; i++ {
		store, err := kvcore.Open(opt.Config)
		if err != nil {
			l.Close()
			return nil, err
		}
		l.stores = append(l.stores, store)
		addr := "127.0.0.1:0"
		if len(opt.Addrs) > 0 {
			addr = opt.Addrs[i]
		}
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			l.Close()
			return nil, fmt.Errorf("cluster: shard %d listen %s: %w", i, addr, err)
		}
		srv := netserver.ServeConfig(store, ln, netserver.Config{MaxInflight: opt.Inflight})
		l.servers = append(l.servers, srv)
		l.addrs = append(l.addrs, srv.Addr().String())
	}
	return l, nil
}

// Addrs returns each shard's listen address, shard-index order.
func (l *Local) Addrs() []string { return append([]string(nil), l.addrs...) }

// Store returns shard i's store (preloading, metrics scraping in tests).
func (l *Local) Store(i int) *kvcore.Store { return l.stores[i] }

// Server returns shard i's network server.
func (l *Local) Server(i int) *netserver.Server { return l.servers[i] }

// Close stops every server and store.
func (l *Local) Close() {
	for _, s := range l.servers {
		s.Close()
	}
	for _, st := range l.stores {
		st.Close()
	}
}
