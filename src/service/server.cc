#include "service/server.h"

#include <utility>

#include "graph/graph_io.h"
#include "router/shard_map.h"
#include "service/stream_sink.h"

namespace sgq {

SocketServer::SocketServer(ServerConfig server_config,
                           ServiceConfig service_config)
    : config_(std::move(server_config)),
      service_(std::move(service_config)),
      line_(config_, this) {}

bool SocketServer::Start(GraphDatabase db, std::string* error) {
  std::vector<GraphId> global_ids;
  if (config_.shard_count > 1) {
    db = FilterDatabaseToShard(
        std::move(db), {config_.shard_index, config_.shard_count},
        &global_ids);
  }
  if (!service_.Start(std::move(db), std::move(global_ids), error)) {
    return false;
  }
  if (!line_.Start(error)) {
    service_.Shutdown();
    return false;
  }
  return true;
}

bool SocketServer::Dispatch(int fd, const Request& request) {
  switch (request.verb) {
    case Request::Verb::kQuery: {
      std::string text = request.graph_text;
      std::string error;
      if (!request.file_ref.empty() &&
          !ReadFileToString(request.file_ref, &text, &error)) {
        service_.CountBadRequest();
        return WriteAll(fd, FormatBadRequestResponse(error));
      }
      Graph query;
      if (!ParseSingleGraph(text, &query, &error)) {
        service_.CountBadRequest();
        return WriteAll(fd, FormatBadRequestResponse(error));
      }
      QueryService::ExecuteOptions options;
      options.timeout_seconds = request.timeout_seconds;
      // LIMIT is enforced inside the service (the engine scan stops at the
      // k-th confirmed answer); the ApplyAnswerLimit below is a no-op kept
      // for responses that predate the sink, e.g. cache entries rewritten
      // by older code paths.
      options.limit = request.limit;
      SocketStreamSink stream_sink(fd);
      if (request.stream) options.sink = &stream_sink;
      QueryService::Response response =
          service_.Execute(std::move(query), options);
      switch (response.outcome) {
        case QueryService::Outcome::kOk:
        case QueryService::Outcome::kTimeout:
          if (request.stream) {
            // Last partial chunk, then the terminal line. STREAM suppresses
            // the batch IDS trailer even when IDS was also requested.
            if (!stream_sink.Flush()) return false;
            return WriteAll(fd,
                            FormatQueryResponse(response.result, nullptr,
                                                /*with_ids=*/false));
          }
          ApplyAnswerLimit(&response.result, request.limit);
          return WriteAll(fd, FormatQueryResponse(response.result, nullptr,
                                                  request.want_ids));
        case QueryService::Outcome::kOverloaded:
          return WriteAll(
              fd, FormatOverloadedResponse({}, response.retry_after_ms));
        case QueryService::Outcome::kShuttingDown:
          return WriteAll(fd, FormatOverloadedResponse("shutting-down"));
      }
      return false;
    }
    case Request::Verb::kStats:
      return WriteAll(fd, "OK " + service_.Stats().ToJson() + "\n");
    case Request::Verb::kReload: {
      const std::string path =
          request.file_ref.empty() ? config_.db_path : request.file_ref;
      std::string error;
      if (path.empty()) {
        service_.CountBadRequest();
        return WriteAll(
            fd, FormatBadRequestResponse("no database path to reload"));
      }
      GraphDatabase db;
      if (!LoadDatabase(path, &db, &error)) {
        service_.CountBadRequest();
        return WriteAll(fd, FormatBadRequestResponse(error));
      }
      std::vector<GraphId> global_ids;
      if (config_.shard_count > 1) {
        db = FilterDatabaseToShard(
            std::move(db), {config_.shard_index, config_.shard_count},
            &global_ids);
      }
      // Reports the post-filter count: what this server actually serves.
      const size_t num_graphs = db.size();
      if (!service_.Reload(std::move(db), std::move(global_ids), &error)) {
        return WriteAll(fd, FormatOverloadedResponse(error));
      }
      return WriteAll(
          fd, "OK reloaded " + std::to_string(num_graphs) + " graphs\n");
    }
    case Request::Verb::kAddGraph: {
      std::string text = request.graph_text;
      std::string error;
      if (!request.file_ref.empty() &&
          !ReadFileToString(request.file_ref, &text, &error)) {
        service_.CountBadRequest();
        return WriteAll(fd, FormatBadRequestResponse(error));
      }
      Graph graph;
      if (!ParseSingleGraph(text, &graph, &error)) {
        service_.CountBadRequest();
        return WriteAll(fd, FormatBadRequestResponse(error));
      }
      if (config_.shard_count > 1) {
        // A sharded member never assigns ids: the router owns the id space
        // and must route the ADD to the graph's splitmix64 owner.
        if (!request.has_graph_id) {
          service_.CountBadRequest();
          return WriteAll(fd, FormatBadRequestResponse(
                                  "sharded server requires ADD GRAPH ... ID "
                                  "<gid> (router assigns the id)"));
        }
        const uint32_t owner =
            ShardOfGraph(request.graph_id, config_.shard_count);
        if (owner != config_.shard_index) {
          service_.CountBadRequest();
          return WriteAll(
              fd, FormatBadRequestResponse(
                      "graph id " + std::to_string(request.graph_id) +
                      " belongs to shard " + std::to_string(owner) +
                      ", this is shard " +
                      std::to_string(config_.shard_index)));
        }
      }
      const GraphId forced = request.graph_id;
      const QueryService::MutationResult result = service_.AddGraph(
          std::move(graph), request.has_graph_id ? &forced : nullptr);
      if (!result.ok) {
        return WriteAll(fd, FormatOverloadedResponse(result.error));
      }
      return WriteAll(fd, FormatAddedResponse(result.global_id));
    }
    case Request::Verb::kRemoveGraph: {
      if (config_.shard_count > 1) {
        const uint32_t owner =
            ShardOfGraph(request.graph_id, config_.shard_count);
        if (owner != config_.shard_index) {
          service_.CountBadRequest();
          return WriteAll(
              fd, FormatBadRequestResponse(
                      "graph id " + std::to_string(request.graph_id) +
                      " belongs to shard " + std::to_string(owner) +
                      ", this is shard " +
                      std::to_string(config_.shard_index)));
        }
      }
      const QueryService::MutationResult result =
          service_.RemoveGraph(request.graph_id);
      if (!result.ok) {
        return WriteAll(fd, FormatOverloadedResponse(result.error));
      }
      return WriteAll(fd, FormatRemovedResponse(result.global_id));
    }
    case Request::Verb::kCacheClear:
      service_.CacheClear();
      return WriteAll(fd, std::string(kCacheClearedResponse));
    case Request::Verb::kShutdown:
      WriteAll(fd, std::string(kByeResponse));
      RequestStop();
      return false;
  }
  return false;
}

}  // namespace sgq
