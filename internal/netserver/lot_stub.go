//go:build !linux

// No parking lot off Linux: newParkingLot returns nil, so every
// connection waits in its pipeline and Server.Transport reports
// TransportGoroutine.
package netserver

// epollSupported reports whether this build carries the parking lot.
const epollSupported = false

type parkState struct{}

type parkingLot struct{}

func newParkingLot(*transport) *parkingLot { return nil }

func (*parkingLot) park(*srvConn) bool { return false }

func (*parkingLot) stop() []*srvConn { return nil }
