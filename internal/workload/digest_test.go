package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
)

// digestSizes are the Threads×OpsPerThread shapes TestGenerateDigests
// pins: a single-thread run at harness smoke scale and the Figure 8
// default.
var digestSizes = []struct{ threads, ops int }{{1, 80}, {4, 600}}

// wantDigests pins the SHA-256 of every registered workload's serialized
// trace (trace.Write) at each digestSizes shape, and for the pmds
// workloads the SHA-256 of the line images the same run captures
// (pmds.Heap.CaptureImages, which crash reopen reads back). Keys are
// "<workload>/<threads>x<ops>" and "<workload>/<threads>x<ops>/images".
var wantDigests = map[string]string{
	"atlas_heap/1x80":             "52fea4a65d4a855bcc82dfa02e8d40eaa228d39fc11aa6bde1f4f00a28491861",
	"atlas_heap/1x80/images":      "70d3e433330499a1aa856feb1524ce8f89077d2c0f77bc84c175a106c72899a2",
	"atlas_heap/4x600":            "41f683a3c7c2bf9ccba3ca6e33cdb1d80d8b018fbd520ab2860bd3716d772d35",
	"atlas_heap/4x600/images":     "cdbd3ade19c24cb051034e545f8f37fb3a5df88ea6c25ca39971de13c455316c",
	"atlas_queue/1x80":            "937b027753b7a7f0d898373c194d26f745e4dc307314b3648d696cffff598820",
	"atlas_queue/1x80/images":     "dec8709dda428f5e79fdb4f66b7ed7de51a6e5ab852c4682f991c811e7e46164",
	"atlas_queue/4x600":           "584b1bf06a4ac8af0091c2e6b37916ba2c5368a259c36dfa76a1767d525d1919",
	"atlas_queue/4x600/images":    "9b461fe0c9e8ee55c7102106e4ca4f0d7d9883ebf553f99faaba688ea41954d6",
	"atlas_skiplist/1x80":         "ad1c149731b951efe6e8b2fa97b114a1b27c2ffa3f6f2ebc528cae75f6895b37",
	"atlas_skiplist/1x80/images":  "03d42d67cb0dd60676f9457423c22353c4b75711dd8e8b4f78a5457c47e9548d",
	"atlas_skiplist/4x600":        "f82dc120a08c65ae1b686e25b1097fb2cf04edae0bd5fc457ad8af7d866588e8",
	"atlas_skiplist/4x600/images": "9c5fe008fba7ecb18d920b2250b802c2f013c6db95382dcfb7caada6be748cc4",
	"bandwidth/1x80":              "63b50da0d472e83d6a3f76f05758e9736e5da053cec13abf5c4f39487a7de0e0",
	"bandwidth/4x600":             "32b632d36b86a888af1b0097eb98c219014beea3ae94d9119bb0e4d782120984",
	"cceh/1x80":                   "5e83d0ab81f638c630059a5a6bd6039bb07ad3bf4d0045b1fd82bd16b757cd8c",
	"cceh/1x80/images":            "b765f6e5071dbaeac12fd82962ceac7ce0531949c89740daa8787c75aacf83ad",
	"cceh/4x600":                  "03757c65d50105debbe72511e4a01e6693f44a6b61a3b5fc8870a16ec11f52eb",
	"cceh/4x600/images":           "3729c6477c8050833684542214d8cefdf94c73bf680f53d0b42e34245e081bf0",
	"dash_eh/1x80":                "19756a567a4ab5320bcf2dd6cb450ce634793827c425c7db9b7b1a3f80366f8d",
	"dash_eh/1x80/images":         "904f3a37b30c87ed73bb2c6bb5ab77479c6ac72b99509048087fcf044a7b2410",
	"dash_eh/4x600":               "8e465977101ed2e1229cac8b3f2075ca8a174acd5fdb409124b6397d5787ac03",
	"dash_eh/4x600/images":        "6561380545a877c6a14fe4f5646943bed7f078c8ee8c3ca12d41830a7abc361c",
	"dash_lh/1x80":                "62cb4b6e5e2d6a56e267ab9a7a644b53f006a6baba54647efafa4c7b1d9c10a8",
	"dash_lh/1x80/images":         "537d336a1bee81bb138495f75045f2522bce40f28958a8145926932ca9f87519",
	"dash_lh/4x600":               "1f7f17a6816a1fd64ef465e58af58cba32768819b72056c687620ca38820dd36",
	"dash_lh/4x600/images":        "659aed3a91e3d7cd74a2219bd5f08012f4372f97b1f4ef90744eca06620d580d",
	"echo/1x80":                   "23cfeb160005e7fcbc638552742bd5676d608a2e1f0b6e2212f735a47fa8921e",
	"echo/4x600":                  "9035e96a35a283fc178753ca7a0580fea14fd563358712403fbe09752fd1a40c",
	"fast_fair/1x80":              "5f6da90f02c90d463537bd843e8d38b18365bbfe16ba8b8bb7c4d72f3a053f67",
	"fast_fair/1x80/images":       "9fadd90234761533b3240b2e197e2c510f0041a6783c35470d720720b58b649b",
	"fast_fair/4x600":             "9e804ba9094852a5226b438c56232ffe1fc5a783ffc27d7b63901dbf75f44f8d",
	"fast_fair/4x600/images":      "52a1e67e6b1d2b8cb99230ddc9db823bf2ab3369710b00320f5e6faf2efc67c0",
	"memcached/1x80":              "8c97b5f11a45822b661aeba3bb097768713620a98655710c1e55ce400494a496",
	"memcached/4x600":             "0bc5ea36cafcfc2e632fdd40ea0d9f1d9da4d0c5667582a89abfe219f1824e90",
	"nstore/1x80":                 "682d9d32187c8fc3ce1d4469201c58408383ce2fb1ae058a5d31360c343f40bb",
	"nstore/4x600":                "4fb9153dcc893a287f515a0ce95ed5d41077bab4b5a1043b734476c9be04f2c9",
	"p_art/1x80":                  "e8c66c2f311fb1c09e665942948f39a53db033f715f6f8f7b4d623cd79654002",
	"p_art/1x80/images":           "e41e03a66fc7cfb2194823339f08fc4854e96d762040a64fe0542350a4ba73c5",
	"p_art/4x600":                 "b8166f9d84af2bbeac965314c3ace980a8463e03d045bf499ad1008f7e26151c",
	"p_art/4x600/images":          "e3175fa0f715949922bde815b88e29753282a485d61b17f263edd9e1b7ddbb18",
	"p_clht/1x80":                 "8471db4cecd58ff53b52ff4ee88eef2a4536cc825f7bbbc65b214f77256ad95c",
	"p_clht/1x80/images":          "b190fce0d4ef01e59758337aebf848fe320b8774dcde38cb685d6f8ff3dc2c1e",
	"p_clht/4x600":                "1fed24b7a26b72f259b8dced30666868017f2777c2babb6f14dbdca875deddf4",
	"p_clht/4x600/images":         "de91669a6b659b1a3df7f4de018a800c096cce7e41000660d4a099aa236e2f03",
	"p_masstree/1x80":             "6239f4f4550abb006220be9059ad6e1053be66b20c72deb424f44b65ac53af5b",
	"p_masstree/1x80/images":      "93f56434d06bb6137555732afeefe69541d9ee29f222077e0875367a4078dc0c",
	"p_masstree/4x600":            "e73e15650d96b854292fbd9e228ea3e9ca7b6ed4a1b6d3c70797336cb438b053",
	"p_masstree/4x600/images":     "5eafb8dbd88eda8b1f21d6c4a6182c98e1f547d3570a66b1b6c20cc49ed44d92",
	"vacation/1x80":               "b572f78e641e4267d09045268ff3eaccb69eb15cfb580508f735ff8625851290",
	"vacation/4x600":              "3605d68260aed7c782c2ceed8f76965f81a484fe1d69adca226946ad7912fb7e",
}

// TestGenerateDigests proves that generated traces and their captured
// line images are byte-stable: a change to the heap, the structures or
// the generators that moves a single byte fails here with the new digest.
func TestGenerateDigests(t *testing.T) {
	got := map[string]string{}
	for _, sz := range digestSizes {
		p := Default()
		p.Threads, p.OpsPerThread = sz.threads, sz.ops
		for _, name := range Names() {
			key := fmt.Sprintf("%s/%dx%d", name, sz.threads, sz.ops)
			tr, err := Generate(name, p)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			if err := tr.Write(h); err != nil {
				t.Fatal(err)
			}
			got[key] = hex.EncodeToString(h.Sum(nil))

			d, ok := pmdsDrivers[name]
			if !ok {
				continue
			}
			heap := d.newHeap(p.Normalized())
			heap.CaptureImages()
			d.drive(heap, p.Normalized())
			h.Reset()
			var addr [8]byte
			for th := 0; th < p.Threads; th++ {
				for _, img := range heap.Images(th) {
					binary.LittleEndian.PutUint64(addr[:], img.LineAddr)
					h.Write(addr[:])
					h.Write(img.Data[:])
				}
			}
			got[key+"/images"] = hex.EncodeToString(h.Sum(nil))
		}
	}
	for key, sum := range got {
		if want, ok := wantDigests[key]; !ok {
			t.Errorf("%q: no pinned digest (got %q)", key, sum)
		} else if sum != want {
			t.Errorf("%q: digest %s, want %s", key, sum, want)
		}
	}
	for key := range wantDigests {
		if _, ok := got[key]; !ok {
			t.Errorf("%q: pinned digest for a workload that no longer generates", key)
		}
	}
}

// TestPMDSHeapCaps: every pmds workload's heap still exhausts at its cap —
// heapSize, and eight times that for p_art's large radix nodes — even
// though the heap backs only what is written.
func TestPMDSHeapCaps(t *testing.T) {
	p := Default().Normalized()
	for name, d := range pmdsDrivers {
		want := heapSize(p)
		if name == "p_art" {
			want *= 8
		}
		h := d.newHeap(p)
		h.Alloc(want-4096, 1)
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "heap exhausted") {
					t.Errorf("%s: one byte past a %d-byte cap: recover() = %v", name, want, r)
				}
			}()
			h.Alloc(1, 1)
		}()
	}
}
