//===- CertVerify.h - Engine-free certificate verification ------*- C++ -*-===//
//
// Part of leapfrog-cc, a C++ reproduction of "Leapfrog: Certified Equivalence
// for Protocol Parsers" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The independent verifier behind the `leapfrog-certcheck` tool — the
/// analogue of the paper's "check the certificate in the Coq kernel"
/// step (§6.4). verifyCertificate() replays a serialized certificate
/// (core/CertificateIo.h format, see cert/CertFormat.h) with NO linkage
/// against the solver, the checker or the logic layer: its trusted base
/// is this file, CertFormat, StreamCheck, the LZSS decompressor, and the
/// C++ standard library. What it re-derives:
///
///  * Container integrity — magic line, section counts, the trailer
///    repeating counts/relhash/fingerprint, and the LFCERT-END mark
///    (truncation and splicing surface as structured diagnostics).
///  * Relation well-formedness — every conjunct line re-parses under the
///    engine's formula grammar (an independent recursive-descent parser)
///    and passes a width/zero-evaluation gate against the declared
///    header widths and guard buffer lengths; the relation hash must
///    match the recorded one.
///  * Record syntax — every integer field is one space plus one canonical
///    decimal (no '+', no leading zeros), so a rewritten spelling of a
///    record is rejected, not read leniently; formula nesting is bounded
///    by MaxFormulaDepth.
///  * Proof stream validity and goal scope discipline — every stream
///    replays through cert::StreamChecker (cert/StreamCheck.h): a
///    deletion-aware RUP checker plus the structural rules that make
///    per-goal DRUP slices sound under clause deletion and goal
///    retirement. The in-repo solver runs the same checker in-process
///    under `--certify-smt`.
///
/// What it deliberately does NOT check: that the CNF inside the streams
/// is a faithful bit-blasting of the relation's entailment obligations.
/// That binding — lowering, bit-blasting, WP re-derivation — is the
/// replayer's job (core::replayCertificate) and remains in the engine's
/// trusted base, exactly as the paper's lowering plugin does.
///
//===----------------------------------------------------------------------===//

#ifndef LEAPFROG_CERT_CERTVERIFY_H
#define LEAPFROG_CERT_CERTVERIFY_H

#include <cstddef>
#include <cstdint>
#include <string>

namespace leapfrog {
namespace cert {

/// The deepest subterm nesting a formula line may have. Real conjuncts
/// stay far below it (VerifyStats::FormulaDepth reports how far; the
/// CertificateTest sweeps pin the margin); the bound keeps a hostile
/// certificate from exhausting the verifier's stack.
constexpr size_t MaxFormulaDepth = 1000;

struct VerifyOptions {
  /// When nonempty, the certificate's fingerprint line must equal this
  /// (lowercase hex) — how a store consumer pins a certificate to the
  /// request key it was fetched under.
  std::string ExpectFingerprintHex;
};

struct VerifyStats {
  size_t RelationConjuncts = 0;
  size_t Streams = 0;
  size_t Goals = 0;
  size_t UnsatGoals = 0;
  size_t Inputs = 0;
  size_t Lemmas = 0;
  size_t Deletions = 0;
  size_t DeletionsSkipped = 0;
  /// Deepest subterm nesting over the spec and relation lines.
  size_t FormulaDepth = 0;
};

struct VerifyResult {
  bool Ok = false;
  /// Located diagnostic ("line 42: lemma is not RUP: ...") when !Ok.
  std::string Diagnostic;
  /// The certificate's own fingerprint line ("-" when it carries none).
  std::string FingerprintHex;
  VerifyStats Stats;
};

/// Verifies \p Payload, which may be raw LFCERT text or an LFCZ1
/// compression container holding it. Never throws; every failure is a
/// diagnostic. See the file comment for exactly what is established.
VerifyResult verifyCertificate(const std::string &Payload,
                               const VerifyOptions &Options = VerifyOptions());

} // namespace cert
} // namespace leapfrog

#endif // LEAPFROG_CERT_CERTVERIFY_H
