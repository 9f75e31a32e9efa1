// The online daemon driven as a closed loop by one client.
//
// replay() sends each protocol line of a trace through
// serve::TeService::handleLine and sends the next only after the reply is
// back -- how coyote_serve answers a controller that waits for each answer
// on stdin. Every event is one timed Probe operation of the `serve` layer,
// named after its op kind, inside a grouping span carrying the event's
// sequence number. An event fails when its reply is not ok:true or
// reports a ratio below 1 (see README.md).
#pragma once

#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "probe.hpp"
#include "serve/service.hpp"
#include "tm/traffic_matrix.hpp"

namespace perfbench {

/// The op kinds of serve::generateTrace streams, in report order.
inline constexpr const char* kServeOps[] = {"demand", "link", "margin",
                                            "what-if", "reoptimize"};

/// Replays `trace` event by event; returns the responses in order.
[[nodiscard]] std::vector<std::string> replay(
    coyote::serve::TeService& service, const std::vector<std::string>& trace,
    Probe& probe);

/// COYOTE-pk's ratio from a closing no-failure what-if, asked in the
/// trace's starting conditions: every link the trace left down is brought
/// back up, every demand entry is set back to `base` and the margin is
/// moved back to 2. The resident configurations are whatever the trace's
/// reoptimize events left. These
/// closing events are timed `serve` operations named "handleLine:closing"
/// (kept out of the event statistics). 0 when the reply carries no ratio.
[[nodiscard]] double closingRatio(coyote::serve::TeService& service,
                                  const coyote::Graph& g,
                                  const coyote::tm::TrafficMatrix& base,
                                  const std::vector<std::string>& trace,
                                  Probe& probe);

/// The op kind of a protocol line ("" when it has none).
[[nodiscard]] std::string opOf(const std::string& line);

}  // namespace perfbench
