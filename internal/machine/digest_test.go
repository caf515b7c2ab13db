package machine

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"asap/internal/config"
	"asap/internal/mem"
	"asap/internal/model"
	"asap/internal/workload"
)

// modelDigests pins each model's whole observable behaviour on three
// workloads (4 threads × 200 ops, seed 1): the run's cycles, every core's
// finish cycle, every counter and distribution of the stat set, and the
// ledger's writes, dependency edges and commits. The asap_ep and asap_rp
// runs are repeated with 4 recovery-table entries (the NACK and
// conservative-mode path) and under the ASAPNoEager ablation. A change to
// a model's mechanism that keeps its behaviour must leave every digest
// unchanged; a failing case prints the digest it got, in this map's form.
var modelDigests = map[string]string{
	"asap_ep/atlas_queue":         "59a3c5b5069dbea01fd7299127d7306cf3555f8a65cea2c2a3bade2f4ffec647",
	"asap_ep/atlas_queue/noeager": "f59c9623b547070de6a70010991205527d0fee7714426bf2bbc89b0f0a06ba7f",
	"asap_ep/atlas_queue/rt4":     "59a3c5b5069dbea01fd7299127d7306cf3555f8a65cea2c2a3bade2f4ffec647",
	"asap_ep/cceh":                "f64127074c9b119982c7df1befa19c7b975cd4893f8b76a1c5de8ee09494362b",
	"asap_ep/cceh/noeager":        "691ebf475744c96c05d7770759c6785fb21b06e4a6c9d2e3959f4dfb89257bc0",
	"asap_ep/cceh/rt4":            "8cdf0aeb7a0a4acd55e794e07a94543422fc693600976302ae6848f5fc23134f",
	"asap_ep/nstore":              "19d02dc1ed499e0ca3e0427b7f02984f473efb7b1380c48c31fee93fe9e6138b",
	"asap_ep/nstore/noeager":      "1fe7b697a07c2b0bebeb605d9a2bc72c8db1be8b439a7c2a6c4f1174494b48c3",
	"asap_ep/nstore/rt4":          "2e307e137474c358236d6b071c774746e1e09090ed4ad468f67ca3808efa4690",
	"asap_rp/atlas_queue":         "baa3d45b758be56faf09e25707e9d1f79c004a2bdf3ae27f3a6634de5cf9cc2b",
	"asap_rp/atlas_queue/noeager": "f3f1aeb8778265202a967aa4dc2e6358cd1d70741eecfeb703ee676e69cad0c7",
	"asap_rp/atlas_queue/rt4":     "baa3d45b758be56faf09e25707e9d1f79c004a2bdf3ae27f3a6634de5cf9cc2b",
	"asap_rp/cceh":                "9c3e80b59ec93f463d3693a1acd78a13f992fd00b10b7c620542bd9489645316",
	"asap_rp/cceh/noeager":        "4ef794da57500c316dfb0bd511520747cfc70be7d81921bed38f70dd657f7045",
	"asap_rp/cceh/rt4":            "9c3e80b59ec93f463d3693a1acd78a13f992fd00b10b7c620542bd9489645316",
	"asap_rp/nstore":              "b12b0fab0e60c6b865dfd94fa0f6d5e18be37d6bd739d9c7ff862d5e63dcd394",
	"asap_rp/nstore/noeager":      "3d77bc41f19005ee72969d9a0a17874056b0f70574204fd02124f626325f3867",
	"asap_rp/nstore/rt4":          "09c84d328a77132ee42ecd8b6625baa732b38e123ea690295eca365813208325",
	"baseline/atlas_queue":        "cc3b2dfe9497cea02bb448e26e94cc93d2ef3f354aeb66eda70ff39f2c871962",
	"baseline/cceh":               "ca6fc8b643d50232f64e34380c71b009257594d3f0f1e5ae2ba159f669897c82",
	"baseline/nstore":             "7c4bc60d5a37c3118b6e100413ec0a3a7b94f908c20ed2b6ac09352ccbb4e577",
	"dpo/atlas_queue":             "44ed095d1168d166267d20b697e3f6695b34daee35fb548700628a67f457d7bf",
	"dpo/cceh":                    "41e003c248e453433fc544426acfa2af1c10f0d033f619ec0a67a403b5020d22",
	"dpo/nstore":                  "4153baac6f972f60f1c4876fd3429bf5d4e9eec1786e036ff2da24ac88274f73",
	"eadr/atlas_queue":            "1717e102a6d85e404c7fb16f130ee1b8179f0b4888a573e2a790ed4a12e234b3",
	"eadr/cceh":                   "87284f7876770d6cdb508558325fa94a1acbe9e6f6a74f0e0f4a0a77e02efe6a",
	"eadr/nstore":                 "4bc3db8757b9bab976f1899064b909cb2d6d1c9e0bf7e0173cf17e507277eed6",
	"hops_ep/atlas_queue":         "8dfbfdcc48325ba9f8357ecac48142994639b8f968b2b6d14ad5d94c421a5a3a",
	"hops_ep/cceh":                "35e0366a3248c013f03a7268a3f8d419ae8dde9df7f16f3c51efab868f9ea98e",
	"hops_ep/nstore":              "2a03936f355de33e97ef4a5b8d870c334e96c5b1f35bb65057adc062b93c02e9",
	"hops_rp/atlas_queue":         "54f1b0f0f26527d0c42bc11ed8e1ef49ea891b6f5f9aafa9eb7573fd8ae5967b",
	"hops_rp/cceh":                "eae83a87b9ab824a7eb0d0dc556a3dbd80bb7450896c405da23d5c5ec32cb118",
	"hops_rp/nstore":              "c7c916e571bc7c239aec12cacada70a0ba8032c8a4c3fbcac2a623c63754533b",
	"lbpp/atlas_queue":            "182776ed582ad6d61862da43bf14f07a35e49b3f32d316c2c8c2ad882959d389",
	"lbpp/cceh":                   "c64d3dabbac8f6bc5b19d04c5e32e20557f4c57388ff2d973a5b26a689690012",
	"lbpp/nstore":                 "1c1364dda04558285b82e2d2af8a140c99f6460bef07f69664bfa486ac3f2024",
	"lrp/atlas_queue":             "2fa9ad0b6139bc454f08f80182baede8fcd77f174766d2b6ddfd43afb1be6779",
	"lrp/cceh":                    "febf44b65268309152622b5ee10f0a866c6db3e399ebe19349a47a5a50e01d24",
	"lrp/nstore":                  "bc0d3064adbc4a8c70e52a8977d0ab2e385e7a70e0fc87ae63ede6f8909f82c8",
	"pmem_spec/atlas_queue":       "201f8d6a6a07389b94d12ab79ed3107ffbe626ff8c0ce8f3c0be91877c0d6ac6",
	"pmem_spec/cceh":              "d27d5a3941e17294c833f72ce082e69d7b99afad60081e531afe112084ea39dd",
	"pmem_spec/nstore":            "317201c78e634b3ba81b33f1d4dad65a7ad717189edca27050bc1b0b2ba0cd95",
	"strandweaver/atlas_queue":    "7bb6b7eb80fb7f31226677a625d39acdb8ffbe465b3a113f7001115378bd1ac2",
	"strandweaver/cceh":           "97bf375e706c17fef1df598629d3071aefaeecb774602839f228b4302f8e635c",
	"strandweaver/nstore":         "2ea408038eaccf57792f65f079d6896e682e2d94031cd2ca65a65daf54299443",
	"vorpal/atlas_queue":          "dde38473722df07c271aa75308753ffb3ae920e9347df04f6c104645b60eb221",
	"vorpal/cceh":                 "b9f75f8a2fa758ba3e80e67193a0153e7d1c432ebac4941849ccdfebfbc827be",
	"vorpal/nstore":               "cad75ba6e0a1746ee974329f4282dcf9798f4504b66dbdb6472bbbc54f80ba0f",
}

// modelDigestVariants are the configurations the ASAP models run under in
// addition to the default one.
var modelDigestVariants = []struct {
	name string
	set  func(*config.Config)
}{
	{"rt4", func(c *config.Config) { c.RTEntries = 4 }},
	{"noeager", func(c *config.Config) { c.ASAPNoEager = true }},
}

// digestRun runs mn on tr under cfg and returns the run's digest and its
// pbNacks count.
func digestRun(t *testing.T, cfg config.Config, mn, wl string) (string, uint64) {
	t.Helper()
	tr, err := workload.Generate(wl, workload.Params{Threads: 4, OpsPerThread: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(cfg, mn, tr)
	if err != nil {
		t.Fatal(err)
	}
	res := m.Run(0)
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	str := func(s string) {
		put(uint64(len(s)))
		h.Write([]byte(s))
	}
	str(res.ModelName)
	put(uint64(res.Cycles))
	put(uint64(len(res.PerCore)))
	for _, c := range res.PerCore {
		put(uint64(c))
	}
	for _, v := range []uint64{res.PMWrites, res.PMReads, uint64(res.RTMaxOcc), uint64(res.WPQMaxOcc)} {
		put(v)
	}
	cvs := res.Stats.CounterValues()
	put(uint64(len(cvs)))
	for _, cv := range cvs {
		str(cv.Name)
		put(cv.Value)
	}
	dvs := res.Stats.DistValues()
	put(uint64(len(dvs)))
	for _, dv := range dvs {
		str(dv.Name)
		put(dv.Count)
		put(math.Float64bits(dv.Mean))
		put(dv.P99)
		put(dv.Max)
	}
	m.Ledger.Lines(func(l mem.Line, ws []WriteRec) {
		put(uint64(l))
		put(uint64(len(ws)))
		for _, w := range ws {
			put(uint64(w.Token))
			put(uint64(w.Epoch.Thread))
			put(w.Epoch.TS)
		}
	})
	put(m.Ledger.NumDeps())
	put(uint64(m.Ledger.NumCommitted()))
	return hex.EncodeToString(h.Sum(nil)), res.Stats.Get("pbNacks")
}

// TestModelDigests pins all twelve models on cceh, nstore and atlas_queue,
// plus the ASAP models' NACK (4 recovery-table entries) and no-eager runs;
// see modelDigests. The nstore runs with 4 recovery-table entries must
// NACK, or the conservative-mode path goes unpinned.
func TestModelDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("48 runs of 800 ops")
	}
	type run struct {
		key, mn, wl string
		cfg         config.Config
	}
	var runs []run
	for _, wl := range []string{"cceh", "nstore", "atlas_queue"} {
		for _, mn := range model.ExtendedNames() {
			runs = append(runs, run{mn + "/" + wl, mn, wl, config.Default()})
		}
		for _, mn := range []string{model.NameASAPEP, model.NameASAPRP} {
			for _, v := range modelDigestVariants {
				cfg := config.Default()
				v.set(&cfg)
				runs = append(runs, run{mn + "/" + wl + "/" + v.name, mn, wl, cfg})
			}
		}
	}
	for _, r := range runs {
		t.Run(r.key, func(t *testing.T) {
			t.Parallel()
			got, nacks := digestRun(t, r.cfg, r.mn, r.wl)
			if want := modelDigests[r.key]; got != want {
				t.Errorf("%q: %q, // want %q", r.key, got, want)
			}
			if r.wl == "nstore" && r.cfg.RTEntries == 4 {
				t.Logf("%s: %d NACKs", r.key, nacks)
				if nacks == 0 {
					t.Errorf("%s: no NACKs; the conservative-mode path is not exercised", r.key)
				}
			}
		})
	}
}

// TestModelInterfacesPinned pins which models the machine traces and
// samples epoch tables from: only ASAP implements model.Traced and
// model.EpochTabled, so the other designs grow no trace tracks or
// timeline columns.
func TestModelInterfacesPinned(t *testing.T) {
	tr := smallTrace(2, 20, 1)
	for _, mn := range model.ExtendedNames() {
		m, err := New(config.Default(), mn, tr)
		if err != nil {
			t.Fatal(err)
		}
		asap := model.Speculative(mn)
		if _, ok := m.Model.(model.Traced); ok != asap {
			t.Errorf("%s: implements model.Traced = %v, want %v", mn, ok, asap)
		}
		if _, ok := m.Model.(model.EpochTabled); ok != asap {
			t.Errorf("%s: implements model.EpochTabled = %v, want %v", mn, ok, asap)
		}
	}
}
