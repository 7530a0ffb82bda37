package join

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/prng"
	"repro/table"
)

// makeRelations builds a PK build side and a probe side with the given hit
// ratio.
func makeRelations(buildN, probeN int, missPct int, seed uint64) (Relation, Relation) {
	rng := prng.NewXoshiro256(seed)
	build := make(Relation, buildN)
	for i := range build {
		build[i] = Row{Key: uint64(i) + 1, Payload: rng.Next()}
	}
	probe := make(Relation, probeN)
	for i := range probe {
		if int(rng.Uint64n(100)) < missPct {
			probe[i] = Row{Key: uint64(buildN) + 1 + rng.Uint64n(1<<40), Payload: uint64(i)}
		} else {
			probe[i] = Row{Key: rng.Uint64n(uint64(buildN)) + 1, Payload: uint64(i)}
		}
	}
	return build, probe
}

type match struct{ key, b, p uint64 }

// sortedMatches canonicalizes emit output for comparison.
func sortedMatches(ms []match) []match {
	sort.Slice(ms, func(i, j int) bool {
		a, b := ms[i], ms[j]
		if a.key != b.key {
			return a.key < b.key
		}
		if a.b != b.b {
			return a.b < b.b
		}
		return a.p < b.p
	})
	return ms
}

func TestHashJoinMatchesNestedLoop(t *testing.T) {
	for _, scheme := range []table.Scheme{
		table.SchemeLP, table.SchemeQP, table.SchemeRH,
		table.SchemeCuckooH4, table.SchemeChained8, table.SchemeChained24,
	} {
		build, probe := makeRelations(5000, 20000, 30, 42)
		var got []match
		n, err := HashJoin(build, probe, Config{Scheme: scheme}, func(k, b, p uint64) {
			got = append(got, match{k, b, p})
		})
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		var want []match
		wantN := NestedLoopJoin(build, probe, func(k, b, p uint64) {
			want = append(want, match{k, b, p})
		})
		if n != wantN || len(got) != len(want) {
			t.Fatalf("%s: %d matches, oracle %d", scheme, n, wantN)
		}
		got, want = sortedMatches(got), sortedMatches(want)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: match %d = %+v, want %+v", scheme, i, got[i], want[i])
			}
		}
	}
}

func TestHashJoinDuplicateBuildKeys(t *testing.T) {
	build := Relation{{1, 10}, {1, 20}, {2, 30}}
	probe := Relation{{1, 0}, {2, 0}, {3, 0}}
	var got []match
	n, err := HashJoin(build, probe, Config{Scheme: table.SchemeLP}, func(k, b, p uint64) {
		got = append(got, match{k, b, p})
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("matches = %d, want 2", n)
	}
	// GetOrPut build semantics: key 1 joins the FIRST build payload.
	for _, m := range got {
		if m.key == 1 && m.b != 10 {
			t.Fatalf("duplicate key payload = %d, want 10", m.b)
		}
	}
}

func TestHashJoinDefaultSchemeFromDecisionGraph(t *testing.T) {
	build, probe := makeRelations(1000, 4000, 10, 7)
	n, err := HashJoin(build, probe, Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if oracle := NestedLoopJoin(build, probe, nil); n != oracle {
		t.Fatalf("matches = %d, oracle %d", n, oracle)
	}
}

func TestEmptyRelations(t *testing.T) {
	if n, err := HashJoin(nil, Relation{{1, 1}}, Config{}, nil); err != nil || n != 0 {
		t.Fatalf("empty build: %d, %v", n, err)
	}
	if n, err := HashJoin(Relation{{1, 1}}, nil, Config{}, nil); err != nil || n != 0 {
		t.Fatalf("empty probe: %d, %v", n, err)
	}
	if n, err := HashJoin(nil, nil, Config{}, nil); err != nil || n != 0 {
		t.Fatalf("empty both: %d, %v", n, err)
	}
}

// TestQuickJoinEquivalence property-tests HashJoin against the nested-loop
// oracle on arbitrary relations.
func TestQuickJoinEquivalence(t *testing.T) {
	prop := func(buildKeys, probeKeys []uint8, seed uint64) bool {
		build := make(Relation, len(buildKeys))
		for i, k := range buildKeys {
			build[i] = Row{Key: uint64(k), Payload: uint64(i)}
		}
		probe := make(Relation, len(probeKeys))
		for i, k := range probeKeys {
			probe[i] = Row{Key: uint64(k), Payload: uint64(i)}
		}
		n, err := HashJoin(build, probe, Config{Scheme: table.SchemeQP, Seed: seed}, nil)
		if err != nil {
			return false
		}
		return n == NestedLoopJoin(build, probe, nil)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRelationKeys(t *testing.T) {
	r := Relation{{5, 0}, {7, 0}}
	ks := r.Keys()
	if len(ks) != 2 || ks[0] != 5 || ks[1] != 7 {
		t.Fatalf("Keys = %v", ks)
	}
}
