package runspec

import (
	"bytes"
	"strings"
	"testing"

	"asap/internal/config"
	"asap/internal/workload"
)

// defaultSpec is the reference spec of the golden-hash test: the Figure 8
// headline cell (cceh under asap_rp at the Table II configuration).
func defaultSpec() RunSpec {
	return New("cceh", "asap_rp", workload.Default(), config.Default())
}

// goldenHash pins the content address of defaultSpec. If this test fails
// you changed the canonical form — a field was added, removed or renamed
// in RunSpec, workload.Params or config.Config, or the canonical encoder
// changed. That invalidates every existing store entry: bump Schema,
// regenerate this constant (the failure message prints the new value),
// and mention the bump in the commit.
const goldenHash = "01bf3605d70c24d10c52896db345a228e1d24de47d2b10f6afac13319bd14e13"

func TestGoldenHash(t *testing.T) {
	h, err := defaultSpec().Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h != goldenHash {
		t.Fatalf("canonical hash of the default spec changed:\n got  %s\n want %s\nIf the spec schema really changed, bump runspec.Schema and update goldenHash.", h, goldenHash)
	}
}

// TestHashIndependentOfFieldOrderAndWhitespace: the same spec serialized
// with shuffled key order and arbitrary whitespace parses to the same
// content address as the struct-built spec.
func TestHashIndependentOfFieldOrderAndWhitespace(t *testing.T) {
	want := defaultSpec().MustHash()
	canon, err := defaultSpec().Canonical()
	if err != nil {
		t.Fatal(err)
	}

	// Hand-written variant: top-level keys shuffled, nested keys shuffled,
	// whitespace everywhere, config elided (defaults fill it). Field
	// values mirror workload.Default().
	variant := `{
		"model":    "asap_rp",
		"params": { "Seed": 1, "Threads": 4, "OpsPerThread": 600,
			    "ValueSize": 64, "KeyRange": 4096, "Strands": false },
		"workload": "cceh",
		"schema": 1
	}`
	s1, err := Parse([]byte(variant))
	if err != nil {
		t.Fatal(err)
	}
	if got := s1.MustHash(); got != want {
		t.Fatalf("shuffled/whitespaced spec hashed %s, struct spec %s", got, want)
	}

	// And the canonical bytes themselves are a fixpoint: parsing them and
	// re-canonicalizing reproduces them exactly.
	s2, err := Parse(canon)
	if err != nil {
		t.Fatal(err)
	}
	canon2, err := s2.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(canon, canon2) {
		t.Fatalf("canonical form is not a fixpoint:\n%s\nvs\n%s", canon, canon2)
	}
}

// TestSchemaParticipatesInHash: bumping the schema version changes the
// hash even when every other field is identical, so a schema bump
// orphans old store entries instead of misreading them.
func TestSchemaParticipatesInHash(t *testing.T) {
	s := defaultSpec()
	bumped := s
	bumped.Schema = Schema + 1
	if s.MustHash() == bumped.MustHash() {
		t.Fatal("schema version does not participate in the hash")
	}
	// Parse refuses foreign schema versions outright.
	if _, err := Parse([]byte(`{"schema": 99, "workload": "cceh", "model": "asap_rp",
		"params": {"Threads": 1, "OpsPerThread": 1}}`)); err == nil ||
		!strings.Contains(err.Error(), "unsupported schema") {
		t.Fatalf("err = %v, want unsupported-schema error", err)
	}
}

// TestNormalization: elided defaults (missing config, zero KeyRange and
// ValueSize, missing schema, Threads above the default core count) are
// filled in by Parse, so minimal and fully spelled-out requests share
// one content address.
func TestNormalization(t *testing.T) {
	minimal := []byte(`{"workload": "cceh", "model": "asap_rp",
		"params": {"Threads": 8, "OpsPerThread": 100}}`)
	s, err := Parse(minimal)
	if err != nil {
		t.Fatal(err)
	}
	if s.Schema != Schema {
		t.Fatalf("Schema = %d, want %d", s.Schema, Schema)
	}
	if s.Params.KeyRange != 1024 || s.Params.ValueSize != 8 {
		t.Fatalf("generator defaults not filled: %+v", s.Params)
	}
	if s.Config.Cores != 8 {
		t.Fatalf("Cores = %d, want raised to 8 threads", s.Config.Cores)
	}

	p := workload.Params{Threads: 8, OpsPerThread: 100, KeyRange: 1024, ValueSize: 8}
	cfg := config.Default()
	cfg.Cores = 8
	if want := New("cceh", "asap_rp", p, cfg).MustHash(); s.MustHash() != want {
		t.Fatalf("minimal spec hashed %s, explicit equivalent %s", s.MustHash(), want)
	}
}

// serialBody is the defaultSpec request as an HTTP client would send it.
const serialBody = `{"workload": "cceh", "model": "asap_rp",
	"params": {"Threads": 4, "OpsPerThread": 600, "KeyRange": 4096, "ValueSize": 64, "Seed": 1}}`

// shardsBodies are serialBody with the "shards" field of the removed
// sharded engine. The field is now unknown, so Parse rejects both.
var shardsBodies = []string{
	`{"workload": "cceh", "model": "asap_rp", "shards": 1,
	"params": {"Threads": 4, "OpsPerThread": 600, "KeyRange": 4096, "ValueSize": 64, "Seed": 1}}`,
	`{"workload": "cceh", "model": "asap_rp", "shards": 2,
	"params": {"Threads": 4, "OpsPerThread": 600, "KeyRange": 4096, "ValueSize": 64, "Seed": 1}}`,
}

// TestShardFieldRejected: serial specs keep the content address they had
// while a "shards" field existed (its canonical form never carried the
// field), and a body that still sends it is an unknown-field error.
func TestShardFieldRejected(t *testing.T) {
	s, err := Parse([]byte(serialBody))
	if err != nil {
		t.Fatal(err)
	}
	if s.MustHash() != goldenHash {
		t.Fatalf("serial body hashed %s, want %s", s.MustHash(), goldenHash)
	}
	for _, body := range shardsBodies {
		if _, err := Parse([]byte(body)); err == nil || !strings.Contains(err.Error(), `unknown field "shards"`) {
			t.Errorf("err = %v, want unknown-field error for %s", err, body)
		}
	}
}

// TestParseRejects: unknown fields (typos must not select defaults
// silently), malformed JSON, and structurally unrunnable specs.
func TestParseRejects(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"unknown field", `{"workload": "cceh", "modle": "asap_rp"}`, "unknown field"},
		{"malformed", `{"workload": `, "parse"},
		{"missing workload", `{"model": "asap_rp", "params": {"Threads": 1, "OpsPerThread": 1}}`, "missing workload"},
		{"missing model", `{"workload": "cceh", "params": {"Threads": 1, "OpsPerThread": 1}}`, "missing model"},
		{"zero threads", `{"workload": "cceh", "model": "asap_rp", "params": {"OpsPerThread": 1}}`, "Threads"},
		{"zero ops", `{"workload": "cceh", "model": "asap_rp", "params": {"Threads": 1}}`, "OpsPerThread"},
		// Normalization raises Cores to the thread count; 65 cores would
		// overflow the directory's 64-bit sharer mask.
		{"65 cores", `{"workload": "cceh", "model": "asap_rp", "params": {"Threads": 65, "OpsPerThread": 1}}`, "Cores 65"},
	}
	for _, tc := range cases {
		if _, err := Parse([]byte(tc.in)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
}

// TestValidateBadConfig: an internally inconsistent machine configuration
// is an error (config.Check), not a panic.
func TestValidateBadConfig(t *testing.T) {
	s := defaultSpec()
	s.Config.InterleaveBytes = 100 // not a multiple of the line size
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "InterleaveBytes") {
		t.Fatalf("err = %v, want InterleaveBytes complaint", err)
	}
}

// TestCanonicalShape: the canonical bytes are compact JSON with sorted
// keys — no spaces, schema before workload only if sorted order says so.
func TestCanonicalShape(t *testing.T) {
	c, err := defaultSpec().Canonical()
	if err != nil {
		t.Fatal(err)
	}
	s := string(c)
	if strings.ContainsAny(s, " \n\t") {
		t.Fatalf("canonical form contains whitespace: %s", s)
	}
	// Top-level keys in sorted order.
	order := []string{`"config"`, `"model"`, `"params"`, `"schema"`, `"workload"`}
	last := -1
	for _, k := range order {
		i := strings.Index(s, k)
		if i < 0 {
			t.Fatalf("canonical form missing %s: %s", k, s)
		}
		if i < last {
			t.Fatalf("canonical keys out of sorted order at %s: %s", k, s)
		}
		last = i
	}
}

// TestValidHash: the content-address format check used by store paths.
func TestValidHash(t *testing.T) {
	good := defaultSpec().MustHash()
	if !ValidHash(good) {
		t.Fatalf("real hash %s rejected", good)
	}
	for _, bad := range []string{
		"", "abc", strings.Repeat("g", HashLen), strings.ToUpper(good),
		"../" + good[3:], good + "ff",
	} {
		if ValidHash(bad) {
			t.Errorf("ValidHash(%q) = true, want false", bad)
		}
	}
}

// TestString: the compact run name used in errors and logs.
func TestString(t *testing.T) {
	if got := defaultSpec().String(); got != "cceh/asap_rp/4t" {
		t.Fatalf("String() = %q", got)
	}
}

// FuzzParse feeds Parse arbitrary request bodies, as asapd does with raw
// HTTP input. Parse must never panic, and every spec it accepts must
// round-trip: its canonical bytes parse back to the same content address.
// testdata/fuzz/FuzzParse holds seeds every plain `go test` replays.
// Explore with
//
//	go test ./internal/runspec -run '^$' -fuzz FuzzParse -fuzztime 30s
func FuzzParse(f *testing.F) {
	canon, err := defaultSpec().Canonical()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(canon)
	f.Add([]byte(serialBody))
	for _, body := range shardsBodies {
		f.Add([]byte(body))
	}
	f.Add([]byte(`{"schema": 99, "workload": "cceh", "model": "asap_rp",
		"params": {"Threads": 1, "OpsPerThread": 1}}`))
	f.Add([]byte(`{"workload": "cceh", "model": "asap_rp",
		"params": {"Threads": 8, "OpsPerThread": 100}}`))
	f.Add([]byte(`{"workload": "cceh", "modle": "asap_rp"}`))
	f.Add([]byte(`{"workload": `))
	f.Fuzz(func(t *testing.T, body []byte) {
		s, err := Parse(body)
		if err != nil {
			return
		}
		c, err := s.Canonical()
		if err != nil {
			t.Fatalf("accepted spec has no canonical form: %v", err)
		}
		back, err := Parse(c)
		if err != nil {
			t.Fatalf("canonical bytes of an accepted spec rejected: %v\n%s", err, c)
		}
		if h, hb := s.MustHash(), back.MustHash(); h != hb {
			t.Fatalf("round trip changed the content address: %s -> %s\n%s", h, hb, c)
		}
	})
}
