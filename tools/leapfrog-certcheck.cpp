//===- leapfrog-certcheck.cpp - Standalone certificate verifier -----------===//
//
// Part of leapfrog-cc, a C++ reproduction of "Leapfrog: Certified Equivalence
// for Protocol Parsers" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// The independent verifier for LFCERT certificates — the analogue of
// handing a Leapfrog proof term to the Coq kernel (§6.4). This binary
// links ONLY cert/CertFormat, cert/CertVerify and support/Compress (the
// build enforces it: no leapfrog library target in its link line), so
// accepting a certificate never depends on the solver or checker that
// produced it.
//
//   leapfrog-certcheck [options] [file]
//
//   file                 certificate path, raw or LFCZ1-compressed;
//                        "-" or no argument reads stdin
//   --fingerprint HEX    require the certificate to be pinned to HEX
//   --quiet              suppress the acceptance summary on stdout
//
// Exit status: 0 = accepted, 1 = rejected (diagnostic on stderr),
// 2 = usage or I/O error.
//
//===----------------------------------------------------------------------===//

#include "cert/CertVerify.h"

#include <cstdio>
#include <cstring>
#include <string>

namespace {

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s [--fingerprint HEX] [--quiet] [file|-]\n", Argv0);
  return 2;
}

bool readAll(std::FILE *F, std::string &Out) {
  char Buf[1 << 16];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Out.append(Buf, N);
  return !std::ferror(F);
}

} // namespace

int main(int Argc, char **Argv) {
  leapfrog::cert::VerifyOptions Options;
  const char *Path = nullptr;
  bool Quiet = false;

  for (int I = 1; I < Argc; ++I) {
    const char *Arg = Argv[I];
    if (std::strcmp(Arg, "--fingerprint") == 0) {
      if (I + 1 >= Argc)
        return usage(Argv[0]);
      Options.ExpectFingerprintHex = Argv[++I];
    } else if (std::strcmp(Arg, "--quiet") == 0) {
      Quiet = true;
    } else if (std::strcmp(Arg, "--help") == 0) {
      usage(Argv[0]);
      return 0;
    } else if (Arg[0] == '-' && Arg[1] != '\0') {
      std::fprintf(stderr, "%s: unknown option '%s'\n", Argv[0], Arg);
      return usage(Argv[0]);
    } else if (Path) {
      std::fprintf(stderr, "%s: more than one input file\n", Argv[0]);
      return usage(Argv[0]);
    } else {
      Path = Arg;
    }
  }

  std::string Payload;
  if (!Path || std::strcmp(Path, "-") == 0) {
    if (!readAll(stdin, Payload)) {
      std::fprintf(stderr, "%s: error reading stdin\n", Argv[0]);
      return 2;
    }
  } else {
    std::FILE *F = std::fopen(Path, "rb");
    if (!F) {
      std::fprintf(stderr, "%s: cannot open '%s'\n", Argv[0], Path);
      return 2;
    }
    bool Ok = readAll(F, Payload);
    std::fclose(F);
    if (!Ok) {
      std::fprintf(stderr, "%s: error reading '%s'\n", Argv[0], Path);
      return 2;
    }
  }

  leapfrog::cert::VerifyResult R =
      leapfrog::cert::verifyCertificate(Payload, Options);
  if (!R.Ok) {
    std::fprintf(stderr, "leapfrog-certcheck: REJECTED: %s\n",
                 R.Diagnostic.c_str());
    return 1;
  }
  if (!Quiet)
    std::printf("leapfrog-certcheck: ACCEPTED fingerprint=%s conjuncts=%zu "
                "streams=%zu goals=%zu unsat=%zu lemmas=%zu inputs=%zu "
                "deletions=%zu (skipped %zu)\n",
                R.FingerprintHex.c_str(), R.Stats.RelationConjuncts,
                R.Stats.Streams, R.Stats.Goals, R.Stats.UnsatGoals,
                R.Stats.Lemmas, R.Stats.Inputs, R.Stats.Deletions,
                R.Stats.DeletionsSkipped);
  return 0;
}
