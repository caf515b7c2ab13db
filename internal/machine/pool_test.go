package machine

import (
	"slices"
	"testing"

	"asap/internal/config"
	"asap/internal/model"
)

// TestPoolEvictsLeastRecentlyUsed: past maxIdle the pool drops the machine
// whose (config, model) was used longest ago, not the one pooled first.
func TestPoolEvictsLeastRecentlyUsed(t *testing.T) {
	var p Pool
	cfgOf := func(key int) config.Config {
		cfg := config.Default()
		cfg.RTEntries += key
		return cfg
	}
	run := func(key int, seed uint64) {
		plan, err := Compile(cfgOf(key), smallTrace(2, 30, seed))
		if err != nil {
			t.Fatal(err)
		}
		m, err := p.Get(plan, model.NameASAPEP)
		if err != nil {
			t.Fatal(err)
		}
		if m.Plan() != plan || m.Model.Name() != model.NameASAPEP {
			t.Fatalf("key %d: Get returned a machine of another plan or model", key)
		}
		if r := m.Run(0); r.Cycles == 0 {
			t.Fatalf("key %d: zero cycles", key)
		}
		p.Put(m)
	}
	for key := 0; key < maxIdle; key++ {
		run(key, 1)
	}
	run(0, 2)       // key 0's machine is reset and pooled again
	run(maxIdle, 1) // one key too many: key 1 goes
	var want []int
	for key := 2; key < maxIdle; key++ {
		want = append(want, key)
	}
	want = append(want, 0, maxIdle)
	var got []int
	for _, m := range p.idle {
		got = append(got, m.Cfg.RTEntries-config.Default().RTEntries)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("the pool holds the machines of keys %v, want %v", got, want)
	}
	if builds, resets := p.Counts(); builds != maxIdle+1 || resets != 1 {
		t.Fatalf("built %d and reset %d machines, want %d and 1", builds, resets, maxIdle+1)
	}
}
