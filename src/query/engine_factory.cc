#include "query/engine_factory.h"

#include <algorithm>

#include "index/ct_index.h"
#include "index/ggsx_index.h"
#include "index/graphgrep_index.h"
#include "index/grapes_index.h"
#include "index/mined_path_index.h"
#include "matching/cfl.h"
#include "matching/cfql.h"
#include "matching/direct_enumeration.h"
#include "matching/graphql.h"
#include "matching/spath.h"
#include "matching/turboiso.h"
#include "query/filter_verify_engine.h"
#include "query/parallel_vcfv_engine.h"
#include "util/logging.h"

namespace sgq {

namespace {

GrapesOptions GrapesOptionsFrom(const EngineConfig& config) {
  GrapesOptions o;
  o.max_path_edges = config.max_path_edges;
  o.num_threads = config.grapes_threads;
  o.memory_limit_bytes = config.index_memory_limit_bytes;
  return o;
}

GgsxOptions GgsxOptionsFrom(const EngineConfig& config) {
  GgsxOptions o;
  o.max_path_edges = config.max_path_edges;
  o.memory_limit_bytes = config.index_memory_limit_bytes;
  return o;
}

CtIndexOptions CtOptionsFrom(const EngineConfig& config) {
  CtIndexOptions o;
  o.fingerprint_bits = config.ct_fingerprint_bits;
  o.max_tree_edges = config.ct_max_tree_edges;
  o.max_cycle_length = config.ct_max_cycle_length;
  return o;
}

}  // namespace

std::unique_ptr<QueryEngine> MakeEngine(const std::string& name,
                                        const EngineConfig& config) {
  auto make = [&name](std::unique_ptr<GraphIndex> index,
                      std::unique_ptr<Matcher> matcher,
                      Vf2Options vf2_options = {}) {
    return std::make_unique<FilterVerifyEngine>(name, std::move(index),
                                                std::move(matcher),
                                                vf2_options);
  };
  // IFV (Table III): index filter + VF2 verification.
  if (name == "CT-Index") {
    return make(std::make_unique<CtIndex>(CtOptionsFrom(config)), nullptr,
                Vf2Options{.heuristic_order = true});
  }
  if (name == "Grapes") {
    return make(std::make_unique<GrapesIndex>(GrapesOptionsFrom(config)),
                nullptr);
  }
  if (name == "GGSX") {
    return make(std::make_unique<GgsxIndex>(GgsxOptionsFrom(config)),
                nullptr);
  }
  // vcFV: matcher preprocessing filter + first-match enumeration.
  if (name == "CFL") return make(nullptr, std::make_unique<CflMatcher>());
  if (name == "GraphQL") {
    return make(nullptr, std::make_unique<GraphQlMatcher>());
  }
  if (name == "CFQL") return make(nullptr, std::make_unique<CfqlMatcher>());
  // IvcFV: index filter + CFQL filter + CFQL verification.
  if (name == "vcGrapes") {
    return make(std::make_unique<GrapesIndex>(GrapesOptionsFrom(config)),
                std::make_unique<CfqlMatcher>());
  }
  if (name == "vcGGSX") {
    return make(std::make_unique<GgsxIndex>(GgsxOptionsFrom(config)),
                std::make_unique<CfqlMatcher>());
  }
  // Extension: gIndex-style mining-based path index.
  if (name == "MinedPath") {
    MinedPathOptions options;
    options.max_path_edges = config.max_path_edges;
    options.memory_limit_bytes = config.index_memory_limit_bytes;
    return make(std::make_unique<MinedPathIndex>(options), nullptr);
  }
  // Extension: GraphGrep [30], the original hash-table path index.
  if (name == "GraphGrep") {
    GraphGrepOptions options;
    options.max_path_edges = config.max_path_edges;
    options.memory_limit_bytes = config.index_memory_limit_bytes;
    return make(std::make_unique<GraphGrepIndex>(options), nullptr);
  }
  // Extensions beyond the paper's Table III: TurboIso as a third vcFV
  // algorithm (the paper names it as equally modifiable), and the
  // direct-enumeration algorithms as vcFV-style scans for comparison.
  if (name == "TurboIso") {
    return make(nullptr, std::make_unique<TurboIsoMatcher>());
  }
  if (name == "QuickSI") {
    return make(nullptr, std::make_unique<QuickSiMatcher>());
  }
  if (name == "SPath") return make(nullptr, std::make_unique<SPathMatcher>());
  if (name == "CFQL-parallel") {
    return std::make_unique<ParallelVcfvEngine>(
        name, [] { return std::make_unique<CfqlMatcher>(); },
        config.parallel_threads, config.parallel_chunk);
  }
  // The naive baseline from Section III-B: VF2 on every data graph, no
  // filtering at all, so every graph is a candidate.
  if (name == "VF2-scan") return make(nullptr, nullptr);
  SGQ_LOG(Fatal) << "unknown engine: " << name;
  return nullptr;
}

const std::vector<std::string>& AllEngineNames() {
  static const std::vector<std::string>& kNames =
      *new std::vector<std::string>{"CT-Index", "Grapes",  "GGSX",
                                    "CFL",      "GraphQL", "CFQL",
                                    "vcGrapes", "vcGGSX"};
  return kNames;
}

const std::vector<std::string>& KnownEngineNames() {
  static const std::vector<std::string>& kNames = *[] {
    auto* names = new std::vector<std::string>(AllEngineNames());
    names->insert(names->end(),
                  {"MinedPath", "GraphGrep", "TurboIso", "QuickSI", "SPath",
                   "CFQL-parallel", "VF2-scan"});
    return names;
  }();
  return kNames;
}

bool IsKnownEngine(const std::string& name) {
  const std::vector<std::string>& names = KnownEngineNames();
  return std::find(names.begin(), names.end(), name) != names.end();
}

}  // namespace sgq
