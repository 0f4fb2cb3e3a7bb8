package core

// WatchRowPaths holds every row a mount publishes, in any package's run, to
// the physical path rows used to store (refPhys) until stop, which returns
// how many rows were published and a description of the first few that
// differ.
func WatchRowPaths() (stop func() (rows int, bad []string)) {
	w, uninstall := watchRows()
	return func() (int, []string) {
		uninstall()
		return w.rows, w.bad
	}
}
