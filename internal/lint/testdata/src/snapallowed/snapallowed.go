// Package snapallowed exercises the snapshotcheck escape hatch: a field
// that a Clone knowingly shares opts out at its declaration, with a
// reason.
package snapallowed

// Server shares its annotated, read-only routes with every clone.
type Server struct {
	routes map[string]int //ntclint:allow snapshotcheck shared: read-only after construction
	//ntclint:allow snapshotcheck shared: immutable after construction
	names []string
	queue []int
	log   []string //ntclint:allow snapshotcheck // want `needs a reason` `reference field Server.log is shared by the whole-value copy in Clone`
}

func (s *Server) Clone() *Server {
	n := *s
	n.queue = append([]int(nil), s.queue...)
	return &n
}

// Leak's annotation trails its own field, so it must not also exempt the
// field below it.
type Leak struct {
	limit int //ntclint:allow snapshotcheck config: fixed at construction
	hits  int // want "field Leak.hits is not copied by Clone"
	seen  int
}

func (l *Leak) Clone() *Leak { return &Leak{seen: l.seen} }
