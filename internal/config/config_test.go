package config

import (
	"strings"
	"testing"
)

func TestDefaultIsValid(t *testing.T) {
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("Default() failed validation: %v", r)
		}
	}()
	Default().Validate()
}

func TestDefaultMatchesTableII(t *testing.T) {
	c := Default()
	if c.Cores != 4 || c.MCs != 2 {
		t.Error("topology differs from Table II")
	}
	if c.PBEntries != 32 || c.ETEntries != 32 || c.RTEntries != 32 || c.WPQEntries != 16 {
		t.Error("structure sizes differ from Table II")
	}
	if c.NVMRead != 350 || c.NVMWrite != 180 { // 175 ns / 90 ns @ 2 GHz
		t.Error("NVM latencies differ from Table II")
	}
	if c.FlushLat != 120 { // 60 ns
		t.Error("persist buffer flush latency differs from Table II")
	}
	if c.HOPSPollInterval != 500 || c.HOPSPollCost != 50 {
		t.Error("HOPS polling parameters differ from §VII")
	}
}

func TestValidatePanics(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.Cores = 0 },
		func(c *Config) { c.MCs = 0 },
		func(c *Config) { c.PBEntries = 0 },
		func(c *Config) { c.PBMaxInflight = 0 },
		func(c *Config) { c.InterleaveBytes = 100 },
	}
	for i, mutate := range cases {
		c := Default()
		mutate(&c)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: invalid config did not panic", i)
				}
			}()
			c.Validate()
		}()
	}
}

// TestCheck pins the error form of validation: each inconsistent or
// oversized field is reported by name, and the limits themselves pass.
func TestCheck(t *testing.T) {
	if err := Default().Check(); err != nil {
		t.Fatalf("Default(): %v", err)
	}
	edge := Default()
	edge.Cores, edge.MCs, edge.XPBufLines, edge.RTEntries = MaxCores, MaxMCs, 0, -1
	if err := edge.Check(); err != nil {
		t.Fatalf("limits: %v", err)
	}
	for _, c := range []struct {
		want   string
		mutate func(*Config)
	}{
		{"Cores 0", func(c *Config) { c.Cores = 0 }},
		{"Cores 65", func(c *Config) { c.Cores = 65 }},
		{"MCs 65", func(c *Config) { c.MCs = 65 }},
		{"L1Ways 0", func(c *Config) { c.L1Ways = 0 }},
		{"L2Size 0", func(c *Config) { c.L2Size = 0 }},
		{"LLCSize", func(c *Config) { c.LLCSize = 1 << 40 }},
		{"PBEntries", func(c *Config) { c.PBEntries = 1 << 20 }},
		{"ETEntries 0", func(c *Config) { c.ETEntries = 0 }},
		{"RTEntries", func(c *Config) { c.RTEntries = 1 << 20 }},
		{"XPBufLines -1", func(c *Config) { c.XPBufLines = -1 }},
		{"PBMaxInflight", func(c *Config) { c.PBMaxInflight = 0 }},
		{"InterleaveBytes", func(c *Config) { c.InterleaveBytes = 100 }},
	} {
		cfg := Default()
		c.mutate(&cfg)
		if err := cfg.Check(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Check() = %v", c.want, err)
		}
	}
}
