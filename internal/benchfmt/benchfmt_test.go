package benchfmt

import (
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestReadFileArgs validates the artifacts named on the command line
// (go test ./internal/benchfmt -run TestReadFileArgs -args a.json b.json),
// so a script can hold what a command emitted to the reader's rules. Each
// file must parse and hold at least one record.
func TestReadFileArgs(t *testing.T) {
	if flag.NArg() == 0 {
		t.Skip("no artifact paths after -args")
	}
	for _, path := range flag.Args() {
		recs, err := ReadFile(path)
		if err != nil || len(recs) == 0 {
			t.Errorf("%s: %d records, %v", path, len(recs), err)
		}
		t.Logf("%s: %d records, bench %q, config %v, extra %v", filepath.Base(path), len(recs),
			recs[0].Bench, sortedKeys(recs[0].Config), sortedKeys(recs[0].Extra))
	}
}

func sortedKeys(m map[string]any) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func TestAppendReadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	recs := []Record{
		{
			Schema: SchemaV1, Bench: "BenchmarkX",
			Config: map[string]any{"workers": 4.0},
			Ops:    1000, OpsPerSec: 5e5, P50Ns: 900, P99Ns: 4000,
			Extra: map[string]any{"heap_inuse": 1024.0},
		},
		{
			Schema: SchemaV1, Bench: "scenario", Scenario: "size-shift",
			Phase: "post-shift", Window: 3, Ops: 50, OpsPerSec: 100,
		},
	}
	for _, r := range recs {
		if err := Append(path, r); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("read %d records, want %d", len(got), len(recs))
	}
	if got[0].Config["workers"] != 4.0 || got[0].Extra["heap_inuse"] != 1024.0 {
		t.Fatalf("config/extra lost: %+v", got[0])
	}
	if got[1].Scenario != "size-shift" || got[1].Window != 3 {
		t.Fatalf("scenario fields lost: %+v", got[1])
	}
}

func TestAppendStampsSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := Append(path, Record{Bench: "x", Ops: 1, OpsPerSec: 1}); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Schema != SchemaV1 {
		t.Fatalf("schema = %q", got[0].Schema)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		rec  Record
		want string
	}{
		{"wrong-schema", Record{Schema: "v0", Bench: "x"}, "schema"},
		{"no-bench", Record{Schema: SchemaV1}, "bench"},
		{"neg-rate", Record{Schema: SchemaV1, Bench: "x", OpsPerSec: -1}, "ops_per_sec"},
		{"orphan-phase", Record{Schema: SchemaV1, Bench: "x", Phase: "p"}, "scenario"},
	}
	for _, c := range cases {
		err := c.rec.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: err = %v, want mention of %q", c.name, err, c.want)
		}
	}
}

func TestReadFileRejectsBadLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	good := `{"schema":"mutps-bench/v1","bench":"x","ops":1,"ops_per_sec":1}`
	bad := `{"schema":"nope","bench":"x","ops":1,"ops_per_sec":1}`
	if err := os.WriteFile(path, []byte(good+"\n"+bad+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil || !strings.Contains(err.Error(), ":2:") {
		t.Fatalf("err = %v, want line-2 schema error", err)
	}
}
