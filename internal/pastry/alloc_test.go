package pastry

import (
	"testing"

	"repro/internal/racetest"
)

// An overlay message's reply is the handler's encoder bytes, handed to the
// caller as they are: a ping round trip allocates only that reply, and a
// GET_LEAFSET its reply and the decoded node list. Each allocated its reply
// twice while the handler returned a copy.
func TestOverlayRoundTripAllocs(t *testing.T) {
	_, nodes := buildOverlay(t, 4, 1, 8)
	from, to := nodes[0], nodes[1].Info().Addr
	racetest.SkipAllocs(t)
	for _, c := range []struct {
		name string
		max  float64
		call func() error
	}{
		{"ping", 1, func() error { _, err := from.rpcPing(to); return err }},
		{"GET_LEAFSET", 7, func() error { _, _, err := from.rpcGetLeafSet(to); return err }},
	} {
		var err error
		n := testing.AllocsPerRun(200, func() {
			if e := c.call(); e != nil {
				err = e
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if n > c.max {
			t.Errorf("a %s round trip allocates %.1f objects, want ≤ %.0f", c.name, n, c.max)
		}
	}
}
