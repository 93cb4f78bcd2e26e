// Command charonctl is the resilient command-line client for charond,
// the simulation job service. It wraps every API exchange in bounded
// retries with seeded deterministic jitter and optional hedged GET
// polling, and it propagates the command's -timeout to the server as an
// X-Charon-Deadline header so the caller's patience bounds job execution
// end to end.
//
// Usage:
//
//	charonctl -server http://127.0.0.1:8080 submit -experiment fig12 -wait
//	charonctl sweep -experiments fig12,fig13 -heap-factors 1.2,1.5 -wait
//	charonctl wait <job-id>
//	charonctl result <job-id>
//	charonctl cancel <job-id>
//	charonctl metrics
//
// Reports are rendered server-side through the same formatter as the
// charonsim CLI, so the bytes charonctl prints are identical to a local
// run. internal/e2e's TestNetchaosE2E checks that through a seeded
// netfault proxy.
//
// See internal/client for the retry/hedge semantics and the exit-code
// reference (0 ok, 1 network/runtime failure, 2 usage, 3 the job itself
// failed).
package main

import (
	"os"

	"charonsim/internal/client"
)

func main() {
	os.Exit(client.Main(os.Args[1:], os.Stdout, os.Stderr))
}
