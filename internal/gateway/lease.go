package gateway

// Coalescing roles reported per request (the X-Hmeans-Route header,
// the gateway access log, and the gateway.lease.* counters).
const (
	// RoleLeader marks the request that dispatched the computation.
	RoleLeader = "leader"
	// RoleFollower marks a request that joined another request's
	// in-flight dispatch and shares its result.
	RoleFollower = "follower"
)

// leaseResult is what one dispatch delivers to its leader and every
// follower coalesced on it.
type leaseResult struct {
	raw     []byte
	status  string // the replica's cache status (miss/hit/coalesced)
	replica string // which replica served it, or answered its error
}
