package crash

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"asap/internal/config"
	"asap/internal/machine"
	"asap/internal/model"
	"asap/internal/rng"
	"asap/internal/workload"
)

// reportDigests pins the checker's output: for every model (eADR included,
// whose ADR-path failures are expected and exercise the Problem strings)
// × workload, the SHA-256 of the campaign result and of every per-point
// Report. A change to the Ledger's representation or to Check's traversal
// must leave every byte of every report unchanged.
var reportDigests = map[string]string{
	"asap_ep/cceh":           "b1ff2ddaf615b3833222283ff20bafbf84e61968eb7c0d022cb9caa939cbf424",
	"asap_ep/memcached":      "db876c690f7b4f83a9ff4a00fe7803520b06a1777d571692e3e78894e39c1ea3",
	"asap_ep/nstore":         "f5a95b78f0f82a3fbddf7326ae6e360b2b0db8addb195e78fe2e130e6403fb2a",
	"asap_ep/p_art":          "9d1f137d3b1d4468352b79de3eda17cabbfe902c28d90b4de2c1149b2e1f0c19",
	"asap_rp/cceh":           "a7d567cd7b979a76b00bb76d1141d950d90253e4566c505d1c376c75b6d12720",
	"asap_rp/memcached":      "e0ab93bb7f0eb173e3baf13e0095edfb28a64361572f665037a2a7510ac0393a",
	"asap_rp/nstore":         "120423202a012d3f762c3f1b1859bf1266a5396f1e4bf3385b3f3c27a46d13ba",
	"asap_rp/p_art":          "da81c7163e396e7d6762b4ddb683bb4388e790a851d52bdd59d6a4180fc9455e",
	"baseline/cceh":          "d1745fb679c66579259aa44ff5f90db5a78062cc6c6fba3c022cea867c2d7c31",
	"baseline/memcached":     "e90a90631c80cf22e8346d4ab53060c0974077a26d34d29bf9545af0ca4c77ad",
	"baseline/nstore":        "9c2351cfbb93a049da0ed3db94a236eab92f3eec3c8daf09a6bbff8fb0a7abe6",
	"baseline/p_art":         "46b6fa56d9b6fc1dd08a6554045d096a8cd644a69b2cf2fc84963dce529bee2d",
	"dpo/cceh":               "956857062dbc329bad16fa39e5fd31216608495e4fee488aceb3632ff17ae89b",
	"dpo/memcached":          "8004ee6d62cf4dd3309dfb58df376ec0f2f7cf0cbbfdca3076c53c46aaae1e1a",
	"dpo/nstore":             "0b1ccf8ee220cf91363f08ea3845540749cc40cc0fd718155fe0dc794ea1066a",
	"dpo/p_art":              "3b2eb99480f018a577f0dcf2cca5f6f59b6ffc54ad638e27d60ec973d6062bf5",
	"eadr/cceh":              "e15971201af8659e00a02008a83a918f2d084d3343af980d1b550f77be30af58",
	"eadr/memcached":         "648af1546319fa01d5a85d413fbac35c74b0714c8ea51ca93a54228873c203fc",
	"eadr/nstore":            "8a3ed27a92ebd9502ffdfac8b437c8f809d93c395ed2a39e94150cad485fdba1",
	"eadr/p_art":             "4f1341cf93c1b6783503279c1d690f2a37264fb550beec0e249130903150b6d3",
	"hops_ep/cceh":           "2927457fa3229042772a26ced246e46e831ead1fcbdc8890d9849f5846429544",
	"hops_ep/memcached":      "a6519f90f026dc792b6e055daca1e7eb536361d57128e645b4005c7ec7acdecd",
	"hops_ep/nstore":         "9e436cd90dcc15b55d4bd3df6c29b25cdf20b43dbc240fa1edab4d9186b3f7ed",
	"hops_ep/p_art":          "da017ba83b47208a13e3327d067566af95c9459a5e98870a510d321372853eb0",
	"hops_rp/cceh":           "cebbe9ace1553a1135563d27670c51968126c93b7afef5b3e55ee9f8e1b0294b",
	"hops_rp/memcached":      "77c6de6d360e00650508cb79949ffb8e21ae858c90ba62a50d5e9b19a89a1ad7",
	"hops_rp/nstore":         "b11dd2ac658a493de016cb8de96872d9b6bd19e625e42635958d8eb6a7daca9d",
	"hops_rp/p_art":          "89da940649929d6c599c9e86c7fe05f1f7a14a0643699f91a2daedeb150170f2",
	"lbpp/cceh":              "127e580c019a807109c756c4f4f216a9f775e5beb16a4f537b0a2ee5dc30338c",
	"lbpp/memcached":         "ce6763920de265f1fa1fb1a44226b14b7f3c8e76f64d4df11a6a6c7367b25b0b",
	"lbpp/nstore":            "2927f0c46fd049eac97dfdde2e26bcf8a177bdf44a4b08653d5e411b1af7b6d2",
	"lbpp/p_art":             "4374c171fd0979d7e1b435e958eed8fe779bd237ba274605daded4ee2d71f6f4",
	"lrp/cceh":               "ce4b99429ef40b8548eb3ff69dcec02c9adf2d5919e4fd71c267ce8f7e7254e3",
	"lrp/memcached":          "448a4f6d60857d0defa8589e77f72a4f88abd2bc5b701335be048370988c1384",
	"lrp/nstore":             "ed1ec5cd53b59986863f0175534609c7e746a468db349348606762e785abd1f3",
	"lrp/p_art":              "cdda75e9266148562e73eb364aefa632cf81d9172bd070eb5b0c6a74df653179",
	"pmem_spec/cceh":         "c6febefba8aaeda5a91850b90399089c5965c546a18ef4ac79fe77455a617b33",
	"pmem_spec/memcached":    "465d1b09e98428a9eb33d6919d57acdbb4cb37ed264bb564b52ff0ec1007a7bc",
	"pmem_spec/nstore":       "b63a0a819b694d2509411b1fe943acfdb61c26013bfca968395ec2d0335ca4ba",
	"pmem_spec/p_art":        "30d4315dcc37357f6307eb63c7a2baec79174b5b35fc7a175ab9500c690de569",
	"strandweaver/cceh":      "790cfe095cb692465034567d85bf0ca47f88b2d7270621112e809dc847bf654e",
	"strandweaver/memcached": "0c47535741f243512964af158598f268081b08df7cde9ba0d55faf22e92763e3",
	"strandweaver/nstore":    "7658701dacac7761297347fefbc0b3b55a322cbc9d446c1f23c5bff898c63312",
	"strandweaver/p_art":     "9c0a6515d90c4a0e59a41d2778ca4cbb19cc56e5c89ec86f2969a69fb4415d81",
	"vorpal/cceh":            "fa6a2dc3e58adca5324fd768ecb2fe4df6591a2ad0702f31a85da5eea85445e9",
	"vorpal/memcached":       "505f75e9224c3edc083f8b1cab6868a37a566e1b42686b1162bf8e60d9261d7a",
	"vorpal/nstore":          "d46256d69ac7b83ea65970d8a00a94afcc8eaa7f7987eca654637cd4fd5de46f",
	"vorpal/p_art":           "a3c4300ea2ba82350713ba0e04c5392616825aedf223c9433939e2cb392fa6b7",
}

const (
	digestRuns = 60
	digestSeed = 2022
)

func hashReport(h hash.Hash, rep Report) {
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	if rep.OK {
		put(1)
	} else {
		put(0)
	}
	put(uint64(len(rep.Problems)))
	for _, p := range rep.Problems {
		put(uint64(len(p)))
		h.Write([]byte(p))
	}
	put(uint64(rep.LinesChecked))
	put(uint64(rep.SurvivingEpochs))
}

// campaignDigest hashes crash.Campaign's result, then replays its
// injection points (the same draws from the same seed) on fresh machines
// crashed with CrashNow and hashes every point's Report, OK ones included,
// so LinesChecked and SurvivingEpochs are pinned for every image.
func campaignDigest(t *testing.T, mn, wl string) string {
	cfg := config.Default()
	tr, err := workload.Generate(wl, workload.Params{Threads: 2, OpsPerThread: 150, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Campaign(cfg, mn, tr, digestRuns, digestSeed)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	h.Write([]byte(res.Model))
	var b [8]byte
	for _, v := range []uint64{uint64(res.Runs), uint64(res.Crashes), uint64(res.MaxCycles), uint64(len(res.Failures))} {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, rep := range res.Failures {
		hashReport(h, rep)
	}

	ref, err := machine.New(cfg, mn, tr)
	if err != nil {
		t.Fatal(err)
	}
	ref.Run(0)
	for _, mc := range ref.MCs {
		mc.CrashFlush()
	}
	refRep := Check(ref)
	hashReport(h, refRep)
	r := rng.New(digestSeed)
	for i := 0; i < digestRuns; i++ {
		at := 1 + r.Uint64n(uint64(res.MaxCycles)+1)
		if at > res.MaxCycles {
			hashReport(h, refRep)
			continue
		}
		m, err := machine.New(cfg, mn, tr)
		if err != nil {
			t.Fatal(err)
		}
		m.CrashNow(at)
		hashReport(h, Check(m))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestCampaignReportDigests pins every Report of a crash campaign for all
// 12 models × cceh, p_art, nstore and memcached (2 threads × 150 ops, 60
// injections each).
func TestCampaignReportDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("48 campaigns")
	}
	for _, wl := range []string{"cceh", "p_art", "nstore", "memcached"} {
		for _, mn := range model.ExtendedNames() {
			key := mn + "/" + wl
			t.Run(key, func(t *testing.T) {
				t.Parallel()
				got := campaignDigest(t, mn, wl)
				if want := reportDigests[key]; got != want {
					t.Errorf("%q: %q, // want %q", key, got, want)
				}
			})
		}
	}
}
