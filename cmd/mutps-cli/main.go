// Command mutps-cli is an interactive client for mutps-server.
//
// Usage:
//
//	mutps-cli -addr localhost:7070
//	> put 42 hello
//	> get 42
//	> scan 0 10
//	> del 42
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"mutps/internal/netserver"
)

// putTTL is the -ttl flag: a TTL stamped on every put issued by this
// session (0 leaves expiry to the server's default).
var putTTL time.Duration

func main() {
	addr := flag.String("addr", "localhost:7070", "server address")
	flag.DurationVar(&putTTL, "ttl", 0,
		"TTL stamped on every put, e.g. 30s (0 = server default / never)")
	flag.Parse()

	cli, err := netserver.Dial(*addr)
	if err != nil {
		log.Fatal(err)
	}
	defer cli.Close()
	fmt.Printf("connected to %s; commands: get K | put K V | del K | scan K N | stats | quit\n", *addr)

	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("> ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line != "" {
			if done := run(cli, line); done {
				return
			}
		}
		fmt.Print("> ")
	}
}

func run(cli *netserver.Client, line string) (quit bool) {
	fields := strings.Fields(line)
	cmd := strings.ToLower(fields[0])
	key := func(i int) (uint64, bool) {
		if len(fields) <= i {
			fmt.Println("missing key")
			return 0, false
		}
		k, err := strconv.ParseUint(fields[i], 10, 64)
		if err != nil {
			fmt.Println("bad key:", err)
			return 0, false
		}
		return k, true
	}
	switch cmd {
	case "quit", "exit":
		return true
	case "get":
		if k, ok := key(1); ok {
			v, ttl, found, err := cli.GetTTL(k)
			report(err, func() {
				switch {
				case found && ttl > 0:
					fmt.Printf("%q (ttl %v remaining)\n", v, ttl.Round(time.Millisecond))
				case found:
					fmt.Printf("%q\n", v)
				default:
					fmt.Println("(not found)")
				}
			})
		}
	case "put":
		if k, ok := key(1); ok {
			if len(fields) < 3 {
				fmt.Println("missing value")
				return
			}
			val := strings.Join(fields[2:], " ")
			err := cli.PutTTL(k, []byte(val), putTTL)
			report(err, func() { fmt.Println("ok") })
		}
	case "del":
		if k, ok := key(1); ok {
			found, err := cli.Delete(k)
			report(err, func() { fmt.Println(map[bool]string{true: "deleted", false: "(not found)"}[found]) })
		}
	case "stats":
		m, err := cli.StatsMap()
		report(err, func() {
			names := make([]string, 0, len(m))
			for n := range m {
				names = append(names, n)
			}
			sort.Strings(names)
			for _, n := range names {
				fmt.Printf("%-48s %g\n", n, m[n])
			}
		})
	case "scan":
		if k, ok := key(1); ok {
			n := 10
			if len(fields) > 2 {
				if v, err := strconv.Atoi(fields[2]); err == nil {
					n = v
				}
			}
			kvs, err := cli.Scan(k, n)
			report(err, func() {
				for _, kv := range kvs {
					fmt.Printf("%d: %q\n", kv.Key, kv.Value)
				}
				fmt.Printf("(%d entries)\n", len(kvs))
			})
		}
	default:
		fmt.Println("commands: get K | put K V | del K | scan K N | stats | quit")
	}
	return false
}

func report(err error, ok func()) {
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	ok()
}
