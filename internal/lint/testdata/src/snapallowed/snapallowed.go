// Package snapallowed exercises the snapshotcheck escape hatch: config
// and derived fields opt out at their declaration, with a reason.
package snapallowed

// Server mixes checkpointed state with annotated configuration.
type Server struct {
	limit int //ntclint:allow snapshotcheck config: fixed at construction
	//ntclint:allow snapshotcheck derived: recomputed from limit on restore
	budget int
	used   int
	bare   int //ntclint:allow snapshotcheck // want `needs a reason` `field Server.bare is not captured by Snapshot`
}

type ServerState struct {
	Used int
}

func (s *Server) Snapshot() ServerState  { return ServerState{Used: s.used} }
func (s *Server) Restore(st ServerState) { s.used = st.Used }

// Leak's annotation trails its own field, so it must not also exempt the
// field below it.
type Leak struct {
	limit int //ntclint:allow snapshotcheck config: fixed at construction
	hits  int // want "field Leak.hits is not captured by Snapshot"
	seen  int
}

type LeakState struct {
	Seen int
}

func (l *Leak) Snapshot() LeakState  { return LeakState{Seen: l.seen} }
func (l *Leak) Restore(st LeakState) { l.seen = st.Seen }
