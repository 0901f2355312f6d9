// Package mpichv is a deterministic, simulation-backed reproduction of the
// MPICH-V fault tolerance framework and of the study "Impact of Event
// Logger on Causal Message Logging Protocols for Fault Tolerant MPI"
// (Bouteiller, Collin, Herault, Lemarinier, Cappello — IPDPS 2005).
//
// The root package holds only this overview and the repository-wide tests.
// The code lives in the packages under internal/, named after the parts of
// the MPICH-V architecture:
//
//   - sim: a process-oriented discrete-event kernel; netmodel: the
//     Fast-Ethernet cluster model;
//   - daemon: the generic communication daemon (Vdaemon) with the
//     V-protocol hook API; mpi: the mini-MPI over it;
//   - causal and protocols: the three causal message logging protocols the
//     paper compares (Vcausal, Manetho, LogOn), pessimistic logging and
//     Chandy-Lamport coordinated checkpointing;
//   - eventlogger, checkpoint, failure: the stable servers — Event Logger,
//     checkpoint server and scheduler, dispatcher with fault injection;
//   - faultplan: declarative fault scenarios (storms, correlated kills,
//     cascades, outages, partitions, degraded links);
//   - workload: NAS Parallel Benchmark skeletons, a NetPIPE-style
//     ping-pong and an always-on request/response service;
//   - cluster: wires one deployment and runs it to a typed outcome;
//   - harness and experiment: declarative sweep grids over a worker pool,
//     and one experiment per table or figure of the paper's evaluation;
//   - obs: the virtual-time timeline, its exports and availability metrics.
//
// cmd/experiments regenerates the paper's tables, cmd/mpichv runs one job,
// and examples/ walks through the packages, starting with
// examples/quickstart.
package mpichv
