package pastry

import (
	"testing"

	"repro/internal/racetest"
)

// An overlay message's reply is the handler's encoder bytes, encoded at
// their exact size and handed to the caller as they are: a ping round trip
// allocates only that reply, and a GET_LEAFSET its reply and the decoded
// node list, whose addresses are the strings the caller already holds for
// those peers. GET_LEAFSET allocated 7 objects while the handler built the
// list before encoding it and the caller decoded every address afresh.
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
		{"GET_LEAFSET", 2, func() error { _, _, err := from.rpcGetLeafSet(to); return err }},
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

// A routing-table row is allocated when its first entry arrives: a node of
// an 8-node overlay fills row 0 and, when another node shares its first
// digit, row 1, so it holds at most two rows of the 32 a fixed table kept.
func TestTableAllocatesOnlyOccupiedRows(t *testing.T) {
	_, nodes := buildOverlay(t, 8, 1, 16)
	racetest.SkipAllocs(t)
	for _, nd := range nodes {
		addr := nd.Info().Addr
		nd.mu.RLock()
		rows := 0
		for r, row := range nd.st.rows {
			if row != nil {
				rows++
			} else if nd.st.occ[r] != 0 {
				t.Errorf("%s: row %d has entries but no storage", addr, r)
			}
		}
		nd.mu.RUnlock()
		if rows > 2 {
			t.Errorf("%s holds %d allocated table rows, want ≤ 2", addr, rows)
		}
	}
}
