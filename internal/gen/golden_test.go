package gen

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"
)

// goldenInstances pins gen.Instance output byte for byte: the hashes were
// captured from the original linear-scan weighted pick, so any change to
// the sampling (a faster search structure, a reordered draw) that alters
// one RNG draw or one vertex shows up here. The configs cover every
// attachment mode, both capacity models, QoS and bandwidth, and sizes
// from a handful of vertices to a few thousand.
var goldenInstances = []struct {
	cfg  Config
	seed int64
	sha  string
}{
	{Config{}, 1, "f11c757dae5c4b67781567f5e0739f9c103c7d50bfeebecd0ae33d26fedba2ef"},
	{Config{Internal: 2, Clients: 3}, 5, "9ccdc7b06c6c124880c6f79e4f5d300cc154ca588c0ac5308b86804162a1c5a6"},
	{Config{Internal: 40, Clients: 120, Lambda: 0.5, Heterogeneous: true}, 3, "0076d51539fa3fdd0985d709ea7d67158548383d7598c7082bc0f5a22a97f642"},
	{Config{Internal: 40, Clients: 120, Attach: AttachDeep}, 4, "655119473b6f054544feeb85b49cb55e964fcc1aedaefa9df363b9bb3cb4b24a"},
	{Config{Internal: 40, Clients: 120, Attach: AttachUniform}, 4, "af553ffe029bcdff945ab38b675bd270d4690e36ff1ee67a70d6b9f697fa67fd"},
	{Config{Internal: 300, Clients: 1200, Lambda: 0.1, Attach: AttachUniform}, 21, "b7201cce23da0c17609f4e2634c5e1fcac48c87536f1a6845fce30db046eb764"},
	{Config{Internal: 500, Clients: 2000, Lambda: 0.4}, 7, "28274cb7a0270e6dce8e52cf1693a3254b5d73f10b977d7e9b5e65a4242b2755"},
	{Config{Internal: 500, Clients: 2000, Attach: AttachDeep, Heterogeneous: true, UnitCosts: true}, 8, "39c82801577a0fc526a71def42b8cbd6d330fdc5a6080b45f34aa364c83fd870"},
	{Config{Internal: 2500, Clients: 10000, Lambda: 0.4}, 9, "1b61bb300923d61b0b38926e1c852446cd9d7e4f2eccb3a4792135b9fd9d6192"},
	{Config{Internal: 2500, Clients: 10000, Attach: AttachDeep}, 10, "e60d9ebf5e952f402a5b23da4abaaaeec9d71cbe71849692d3726ea6a6e03494"},
	{Config{Internal: 30, Clients: 60, QoSRange: 3, BWFactor: 0.8}, 11, "500225ea88d3eb85ce82722d91f50a7c43a2acc2c6891d01183a888ff2c4f85a"},
	{Config{Internal: 60, Clients: 50, Attach: AttachDeep, QoSRange: 5, BWFactor: 1.5, MinRequests: 5, MaxRequests: 9}, 12, "d2762e6f24fa2df293d96ad8574fe4f18bb0a03d8e96504272ea12a4de03b575"},
}

func instanceHash(t *testing.T, cfg Config, seed int64) string {
	t.Helper()
	raw, err := json.Marshal(Instance(cfg, seed))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

func TestInstanceGolden(t *testing.T) {
	for _, g := range goldenInstances {
		name := fmt.Sprintf("%+v/seed=%d", g.cfg, g.seed)
		if got := instanceHash(t, g.cfg, g.seed); got != g.sha {
			t.Errorf("%s: instance hash %s, want %s", name, got, g.sha)
		}
	}
}
