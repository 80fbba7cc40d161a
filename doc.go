// Package offnetscope is a from-scratch Go reproduction of "Seven Years
// in the Life of Hypergiants' Off-Nets" (Gigis et al., SIGCOMM 2021): a
// generic methodology that maps where content hypergiants (Google,
// Netflix, Facebook, Akamai, ...) install servers inside other networks,
// using nothing but Internet-wide TLS-certificate and HTTP(S)-header
// scan corpuses.
//
// The repository contains the full system the paper's study needs:
//
//   - internal/core — the §4 inference pipeline (the paper's contribution);
//   - internal/worldsim — a ground-truth Internet simulator standing in
//     for the proprietary Rapid7/Censys corpuses, with every deployment
//     pathology the paper documents;
//   - internal/astopo, internal/bgpsim, internal/population — the AS
//     topology, BGP/IP-to-AS, and user-population substrates (CAIDA,
//     RouteViews/RIS, APNIC stand-ins);
//   - internal/scanners, internal/corpus — scan-campaign emulation and
//     dataset persistence;
//   - internal/probe, internal/servefarm, internal/waves — a real
//     TLS/HTTP scanner, loopback farm and scan waves feeding internal/core;
//   - internal/analysis — one function per table and figure in the
//     paper's evaluation, plus the §5 validation experiments.
//
// The benchmarks in this package regenerate every table and figure; see
// DESIGN.md for the experiment index and EXPERIMENTS.md for
// paper-versus-measured comparisons.
package offnetscope
