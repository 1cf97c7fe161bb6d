package sim

import "aqt/internal/graph"

// SimpleRoute exposes the engine's admit-time route check to the
// external tests.
func (e *Engine) SimpleRoute(route []graph.EdgeID) bool { return e.simpleRoute(route) }
