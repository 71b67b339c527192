package loadgen

import (
	"errors"
	"time"

	"mutps/internal/kvcore"
	"mutps/internal/netserver"
	"mutps/internal/rpc"
	"mutps/internal/workload"
)

// KV is the method set netserver.Client, cluster.Client and kvcore.Store
// share. A get miss is not an error: workloads delete and rotate hotspots.
type KV interface {
	Get(key uint64) ([]byte, bool, error)
	Put(key uint64, val []byte) error
	Delete(key uint64) (bool, error)
}

type scanner interface {
	Scan(start uint64, count int) ([]kvcore.KV, error)
}

type mgetter interface {
	MGet(keys []uint64) (vals [][]byte, found []bool, err error)
}

// Sync is the synchronous request→call mapping: one request at a time
// against a KV, resent after a backoff for as long as the server sheds it
// (every op here is idempotent). It is a scenario.Client, and belongs to
// one goroutine.
type Sync struct {
	w         *Worker
	kv        KV
	valueSize int
	val       []byte
}

// NewSync adapts kv. Puts carry valueSize zero bytes unless the request
// names a size. w takes Drive's samples and the shed count; it may be nil
// for a caller that only uses Do and keeps its own clock.
func NewSync(w *Worker, kv KV, valueSize int) *Sync {
	return &Sync{w: w, kv: kv, valueSize: valueSize, val: make([]byte, valueSize)}
}

func (s *Sync) retry(call func() error) error {
	for {
		err := call()
		if !errors.Is(err, netserver.ErrBacklogged) && !errors.Is(err, rpc.ErrBacklogged) {
			return err
		}
		if s.w != nil {
			s.w.shed.Add(1)
		}
		time.Sleep(shedRetryDelay)
	}
}

// Do executes one request. A KV with a Scan method serves scans; on one
// without (the cluster client: no cross-shard merge yet) a scan degrades
// to a get on the routed shard.
func (s *Sync) Do(req workload.Request) error {
	return s.retry(func() (err error) {
		sc, canScan := s.kv.(scanner)
		switch {
		case req.Op == workload.OpPut:
			n := req.ValueSize
			if n == 0 {
				n = s.valueSize
			}
			if n > len(s.val) {
				s.val = make([]byte, n)
			}
			err = s.kv.Put(req.Key, s.val[:n])
		case req.Op == workload.OpDelete:
			_, err = s.kv.Delete(req.Key)
		case req.Op == workload.OpScan && canScan:
			_, err = sc.Scan(req.Key, req.ScanCount)
		default:
			_, _, err = s.kv.Get(req.Key)
		}
		return err
	})
}

// Drive issues n requests from src and records each one's latency. With
// mget > 1 on a KV that has MGet, consecutive gets accumulate into one
// batched call of up to mget keys, flushed early when another op arrives
// (rough program order); the frame's latency is recorded once per key,
// since every key in it waited that long.
func (s *Sync) Drive(src Source, n, mget int) error {
	mg, batching := s.kv.(mgetter)
	batching = batching && mget > 1
	var batch []uint64
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		t0 := time.Now()
		err := s.retry(func() error {
			_, _, err := mg.MGet(batch)
			return err
		})
		if err == nil {
			s.w.record(len(batch), time.Since(t0))
		}
		batch = batch[:0]
		return err
	}
	for i := 0; i < n; i++ {
		req := src.Next()
		if batching && req.Op == workload.OpGet {
			if batch = append(batch, req.Key); len(batch) == mget {
				if err := flush(); err != nil {
					return err
				}
			}
			continue
		}
		if err := flush(); err != nil {
			return err
		}
		t0 := time.Now()
		if err := s.Do(req); err != nil {
			return err
		}
		s.w.record(1, time.Since(t0))
	}
	return flush()
}
