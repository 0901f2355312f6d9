package checkpoint

import (
	"mpichv/internal/event"
	"mpichv/internal/vproto"
)

// Wave returns the images the server holds for wave e, by rank (nil once
// the wave is pruned).
func (s *Server) Wave(e int) map[event.Rank]*vproto.CheckpointImage { return s.byEpoch[e] }
