package experiments

import (
	"encoding/json"
	"io"
)

// Result is what every experiment's Run returns: it remembers the options it
// ran with and renders itself as a text table or as CSV. koshabench drives
// all experiments through this one interface.
type Result interface {
	Fprint(w io.Writer)
	FprintCSV(w io.Writer)
}

// FprintJSON emits any result as an indented JSON document; make ci's smoke
// runs grep it for the fields the docs tables are built from.
func FprintJSON(w io.Writer, r Result) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
