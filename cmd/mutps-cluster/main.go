// Command mutps-cluster launches and supervises a local shard set for
// multi-shard benchmarking: N independent μTPS stores presented as one
// logical keyspace to a cluster-aware client (mutps-loadgen -cluster).
//
// Two modes:
//
//   - in-process (default): every shard is a store + netserver listener in
//     this process — separate indexes, worker pools, and arenas, sharing
//     only the kernel. Zero setup, ideal for quick scaling runs.
//   - multi-process (-exec): every shard is a spawned mutps-server child
//     process, supervised until exit — true process isolation (separate
//     heaps, separate GC), the honest configuration for scaling claims.
//
// Usage:
//
//	mutps-cluster -shards 2 -base-port 7071 -workers 4
//	mutps-cluster -shards 2 -exec ./mutps-server -- -hot 4096
//	mutps-loadgen -cluster localhost:7071,localhost:7072 -mget 64
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"sync"
	"syscall"

	"mutps/internal/cluster"
	"mutps/internal/kvcore"
)

func main() {
	shards := flag.Int("shards", 2, "number of shard servers")
	basePort := flag.Int("base-port", 7071, "first shard listens here; shard i on base-port+i")
	host := flag.String("host", "127.0.0.1", "listen host for every shard")
	engine := flag.String("engine", "hash", "index engine: hash or tree")
	workers := flag.Int("workers", 4, "worker goroutines per shard")
	cr := flag.Int("cr", 1, "cache-resident workers per shard")
	hot := flag.Int("hot", 4096, "hot-set target per shard (0 disables)")
	inflight := flag.Int("inflight", 0, "per-connection server pipelining window (0 = default)")
	execBin := flag.String("exec", "",
		"spawn this mutps-server binary per shard instead of serving in-process; extra args after -- are passed through")
	flag.Parse()

	if *shards < 1 {
		log.Fatal("need at least one shard")
	}
	addrs := make([]string, *shards)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("%s:%d", *host, *basePort+i)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	if *execBin != "" {
		runProcesses(*execBin, addrs, flag.Args(), sig,
			"-engine", *engine,
			"-workers", fmt.Sprint(*workers),
			"-cr", fmt.Sprint(*cr),
			"-hot", fmt.Sprint(*hot),
			"-inflight", fmt.Sprint(*inflight))
		return
	}

	eng := kvcore.Hash
	switch *engine {
	case "hash":
	case "tree":
		eng = kvcore.Tree
	default:
		log.Fatalf("unknown engine %q (want hash or tree)", *engine)
	}
	l, err := cluster.LaunchLocal(*shards, cluster.LocalOptions{
		Config:   kvcore.Config{Engine: eng, Workers: *workers, CRWorkers: *cr, HotItems: *hot},
		Inflight: *inflight,
		Addrs:    addrs,
	})
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("cluster of %d in-process shards serving (%d workers each)", *shards, *workers)
	log.Printf("drive it with: mutps-loadgen -cluster %s", strings.Join(l.Addrs(), ","))
	<-sig
	log.Print("shutting down shards")
	l.Close()
}

// runProcesses spawns one mutps-server child per shard and supervises:
// the cluster stays up until a signal arrives or any child dies (a dead
// shard makes cluster results meaningless, so the supervisor tears the
// rest down rather than limping on).
func runProcesses(bin string, addrs, extraArgs []string, sig chan os.Signal, commonArgs ...string) {
	procs := make([]*exec.Cmd, len(addrs))
	died := make(chan int, len(addrs))
	var wg sync.WaitGroup
	for i, addr := range addrs {
		args := append([]string{"-addr", addr}, commonArgs...)
		args = append(args, extraArgs...)
		cmd := exec.Command(bin, args...)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			log.Printf("shard %d (%s): start: %v", i, addr, err)
			stopAll(procs)
			os.Exit(1)
		}
		procs[i] = cmd
		log.Printf("shard %d: %s serving on %s (pid %d)", i, bin, addr, cmd.Process.Pid)
		wg.Add(1)
		go func(i int, cmd *exec.Cmd) {
			defer wg.Done()
			cmd.Wait()
			died <- i
		}(i, cmd)
	}
	log.Printf("drive it with: mutps-loadgen -cluster %s", strings.Join(addrs, ","))
	select {
	case <-sig:
		log.Print("shutting down shard processes")
	case i := <-died:
		log.Printf("shard %d exited (%v); stopping the cluster", i, procs[i].ProcessState)
	}
	stopAll(procs)
	wg.Wait()
}

// stopAll interrupts every live child (mutps-server shuts down cleanly on
// SIGINT).
func stopAll(procs []*exec.Cmd) {
	for _, p := range procs {
		if p != nil && p.Process != nil {
			p.Process.Signal(os.Interrupt)
		}
	}
}
