package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
)

// tiny runs every workload's code path at a size a test can afford.
var tiny = sizes{
	storedKeys:  1 << 16,
	churnStart:  4 << 10,
	customers:   1 << 10,
	orders:      1 << 15,
	setupReps:   1,
	warmBatches: 4,
	churnCycles: 10,
	ladderReps:  1,
}

type result struct {
	Correct   bool                       `json:"correct"`
	Attempted int64                      `json:"attempted"`
	Failed    int64                      `json:"failed"`
	Metrics   map[string]json.RawMessage `json:"metrics"`
}

// runTiny runs one workload and decodes the result line.
func runTiny(t *testing.T, workload, trace string, tamper func([]uint64)) (int, result, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace, "--out", t.TempDir()},
		&stdout, &stderr, tiny, tamper)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v\n%s%s", workload, err, stdout.String(), stderr.String())
	}
	return code, res, stdout.String()
}

// declared returns the metric names BENCHMARK.json declares in section.
func declared(t *testing.T, section string) []string {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]json.RawMessage
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name string }
	if err := json.Unmarshal(spec[section], &ms); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range ms {
		names = append(names, m.Name)
	}
	slices.Sort(names)
	return names
}

// TestWorkloadsPrintDeclaredMetrics runs each workload untraced and
// traced: the oracle passes and the result carries exactly the metrics
// BENCHMARK.json declares for that mode.
func TestWorkloadsPrintDeclaredMetrics(t *testing.T) {
	for _, mode := range []struct{ trace, section string }{{"0", "end_to_end"}, {"1", "per_layer"}} {
		want := declared(t, mode.section)
		for name := range workloads {
			code, res, out := runTiny(t, name, mode.trace, nil)
			if code != 0 || !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Fatalf("%s --trace %s: exit %d, result %+v\n%s", name, mode.trace, code, res, out)
			}
			var got []string
			for m := range res.Metrics {
				got = append(got, m)
			}
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Errorf("%s --trace %s prints %v, BENCHMARK.json declares %v", name, mode.trace, got, want)
			}
		}
	}
}

// TestPlantedWrongAnswerFails flips a bit in every value the library
// returns: each workload's oracle must catch it and the command must exit
// nonzero.
func TestPlantedWrongAnswerFails(t *testing.T) {
	flip := func(vals []uint64) {
		for i := range vals {
			vals[i] ^= 1
		}
	}
	for name := range workloads {
		code, res, out := runTiny(t, name, "0", flip)
		if code == 0 || res.Correct {
			t.Errorf("%s with a planted wrong answer: exit %d, correct=%t\n%s", name, code, res.Correct, out)
		}
		if !strings.Contains(out, "MISMATCH") {
			t.Errorf("%s: no mismatch reported\n%s", name, out)
		}
	}
}

func TestBadArgumentsFail(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "query", "--seconds", "0"},
		{"--workload", "query", "--trace", "2"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr, tiny, nil); code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}
