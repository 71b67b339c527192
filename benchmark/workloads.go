package main

import (
	"encoding/binary"

	"mutps/internal/netserver"
	"mutps/internal/workload"
)

// Every workload drives the same server shape (-workers 2 -cr 1, all other
// flags default) from one process over conns loopback connections.
const (
	conns        = 2    // pipelined load connections, = nproc on the reference host
	hotItems     = 4096 // the server's default -hot; workloads are sized against it
	preloadDepth = 128  // preloader window per connection
	openDepth    = 1024 // open-loop client depth: large enough never to throttle the schedule
	p99LimitUs   = 2000 // paced_mix latency limit on p99_us
	maxGenLagUs  = 200  // an open-loop rate that fails while its generator ran later than this is invalid, not slow
)

// spec is one workload: the server engine, the data it is preloaded with,
// and the traffic offered to it. Why each exists is in BENCHMARK.json and
// README.md.
type spec struct {
	name   string
	engine string // mutps-server -engine
	keys   uint64
	theta  float64 // zipf skew of request keys; 0 = uniform
	mix    workload.Mix
	sizes  workload.SizeDist // preload and put value sizes
	window int               // closed loop: requests in flight per connection
	// Open loop when non-nil: offered rates in ops/s over all connections,
	// one step each. Frozen absolute numbers (see README): they were set
	// from this host's closed-loop saturation on the same mix and must not
	// follow the code under test. refStep indexes the step whose latency is
	// reported as p50_us/p99_us.
	rates   []int
	refStep int
}

var workloads = []spec{
	{
		name:   "hot_get",
		engine: "hash", keys: 200_000, theta: 0.99,
		mix: workload.MixYCSBC, sizes: workload.FixedSize(64), window: 16,
	},
	{
		name:   "uniform_mix",
		engine: "hash", keys: 1_000_000, theta: 0,
		mix: workload.MixYCSBA, sizes: workload.UniformSize{Min: 64, Max: 512}, window: 16,
	},
	{
		name:   "scan_tree",
		engine: "tree", keys: 200_000, theta: 0.99,
		mix: workload.Mix{ScanFrac: 0.9}, sizes: workload.FixedSize(64), window: 4,
	},
	{
		name:   "paced_mix",
		engine: "hash", keys: 200_000, theta: 0.99,
		mix: workload.MixYCSBB, sizes: workload.FixedSize(64),
		rates: pacedRates, refStep: 1,
	},
}

// pacedRates are about 20/40/60/80 % of the closed-loop saturation this
// host reached on paced_mix's own mix when the benchmark was defined,
// rounded to 1k ops/s.
var pacedRates = []int{20_000, 40_000, 60_000, 80_000}

func findWorkload(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

func (s spec) open() bool { return s.rates != nil }

// op is one generated request, kept until its response has been checked.
type op struct {
	code  byte // netserver op code
	key   uint64
	count int // scan length asked for
}

// opGen turns the seeded request stream into wire requests. One per
// connection, so generation needs no lock; the server sees only what
// next returns.
type opGen struct {
	g       *workload.Generator
	version uint32
	val     []byte
	scan    [4]byte
}

func newOpGen(s spec, seed uint64, conn int) *opGen {
	return &opGen{g: workload.NewGenerator(workload.Config{
		Keys: s.keys, Theta: s.theta, Mix: s.mix, ValueSize: s.sizes,
		ScanLen: 50, // lengths uniform in [1, 99]
		Seed:    seed*1_000_003 + uint64(conn) + 1,
	})}
}

// next returns the request and its payload; the payload is valid until the
// following call.
func (o *opGen) next() (op, []byte) {
	r := o.g.Next()
	switch r.Op {
	case workload.OpPut:
		o.version++
		o.val = encodeValue(o.val, r.Key, o.version, r.ValueSize)
		return op{code: netserver.OpPut, key: r.Key}, o.val
	case workload.OpScan:
		binary.LittleEndian.PutUint32(o.scan[:], uint32(r.ScanCount))
		return op{code: netserver.OpScan, key: r.Key, count: r.ScanCount}, o.scan[:]
	default:
		return op{code: netserver.OpGet, key: r.Key}, nil
	}
}

// check verifies one response against the request that caused it. All
// keys are preloaded and nothing is deleted, so a miss is a failure too.
func (p op) check(status byte, body []byte, err error) error {
	if err != nil {
		return err
	}
	switch p.code {
	case netserver.OpGet:
		if status != netserver.StatusFound {
			return errStatus(status)
		}
		return verifyValue(p.key, body)
	case netserver.OpScan:
		if status != netserver.StatusFound {
			return errStatus(status)
		}
		_, err := verifyScan(p.key, p.count, body)
		return err
	default:
		if status != netserver.StatusFound {
			return errStatus(status)
		}
		return nil
	}
}

type errStatus byte

func (e errStatus) Error() string {
	switch byte(e) {
	case netserver.StatusNotFound:
		return "status not-found for a preloaded key"
	case netserver.StatusExpired:
		return "status expired on a store without TTLs"
	}
	return "unexpected status " + string('0'+byte(e))
}

func (p op) String() string {
	switch p.code {
	case netserver.OpPut:
		return "put"
	case netserver.OpScan:
		return "scan"
	}
	return "get"
}
