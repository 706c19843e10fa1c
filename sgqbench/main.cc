// sgqbench: the tool behind the sgq serving benchmark (see run.py).
//
//   sgqbench gen-dataset --dir D --db aids|big ...      database, pools, keys
//   sgqbench gen-stream --dir D --out F --seed N ...    one run's traffic
//   sgqbench drive --dir D --stream F --socket S ...    load + answer checks
//   sgqbench trace --dir D --stream F --engine E ...    per-layer replay
#include <cstdio>
#include <string>

#include "common.h"

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: sgqbench gen-dataset|gen-stream|drive|trace "
                 "--flag value ...\n");
    return 2;
  }
  const std::string command = argv[1];
  const sgqbench::Flags flags(argc, argv, 2);
  if (!flags.ok()) return 2;
  if (command == "gen-dataset") return sgqbench::RunGenDataset(flags);
  if (command == "gen-stream") return sgqbench::RunGenStream(flags);
  if (command == "drive") return sgqbench::RunDrive(flags);
  if (command == "trace") return sgqbench::RunTrace(flags);
  std::fprintf(stderr, "unknown command: %s\n", command.c_str());
  return 2;
}
