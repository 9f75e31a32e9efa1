#include "replay.hpp"

#include <algorithm>
#include <exception>

#include "util/json.hpp"

namespace perfbench {

namespace json = coyote::util::json;

namespace {

/// Probe operation names, parallel to kServeOps, plus a catch-all.
const char* callName(const std::string& op) {
  static constexpr const char* kNames[] = {
      "handleLine:demand", "handleLine:link", "handleLine:margin",
      "handleLine:what-if", "handleLine:reoptimize"};
  for (std::size_t k = 0; k < std::size(kServeOps); ++k) {
    if (op == kServeOps[k]) return kNames[k];
  }
  return "handleLine:other";
}

/// Empty when `response` passes the event checks, else the reason.
std::string checkResponse(const std::string& response) {
  try {
    const json::Value r = json::parse(response);
    const json::Value* ok = r.find("ok");
    if (ok == nullptr || !ok->isBool() || !ok->asBool()) {
      return "reply not ok: " + r.stringOr("error", "");
    }
    if (const json::Value* ratios = r.find("ratios")) {
      for (const auto& [scheme, v] : ratios->asObject()) {
        if (!v.isNumber() || !(v.asNumber() >= 1.0 - 1e-9)) {
          return "ratio of " + scheme + " below 1";
        }
      }
    }
  } catch (const std::exception& e) {
    return std::string("unparsable reply: ") + e.what();
  }
  return {};
}

std::string handle(coyote::serve::TeService& service, const std::string& line,
                   const char* call_name, int seq, Probe& probe) {
  const int span = probe.open("event " + std::to_string(seq), seq);
  std::string response = probe.call("serve", call_name,
                                    [&] { return service.handleLine(line); });
  if (const std::string why = checkResponse(response); !why.empty()) {
    probe.failLast(why);
  }
  probe.close(span);
  return response;
}

}  // namespace

std::string opOf(const std::string& line) {
  try {
    return json::parse(line).stringOr("op", "");
  } catch (const std::exception&) {
    return "";
  }
}

std::vector<std::string> replay(coyote::serve::TeService& service,
                                const std::vector<std::string>& trace,
                                Probe& probe) {
  std::vector<std::string> responses;
  responses.reserve(trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    responses.push_back(handle(service, trace[i], callName(opOf(trace[i])),
                               static_cast<int>(i) + 1, probe));
  }
  return responses;
}

double closingRatio(coyote::serve::TeService& service, const coyote::Graph& g,
                    const coyote::tm::TrafficMatrix& base,
                    const std::vector<std::string>& trace, Probe& probe) {
  // Links the trace left down, in the order they went down.
  std::vector<json::Value> down;
  for (const std::string& line : trace) {
    const json::Value req = json::parse(line);
    if (req.stringOr("op", "") != "link") continue;
    const json::Value& link = *req.find("link");
    const auto it = std::find_if(down.begin(), down.end(), [&](const auto& l) {
      return l.dump(0) == link.dump(0);
    });
    if (it != down.end()) down.erase(it);
    if (!req.find("up")->asBool()) down.push_back(link);
  }
  std::vector<std::string> closing;
  for (const json::Value& link : down) {
    json::Value req = json::Value::object();
    req["op"] = "link";
    req["link"] = link;
    req["up"] = true;
    closing.push_back(req.dump(0));
  }
  json::Value entries = json::Value::array();
  for (coyote::NodeId a = 0; a < g.numNodes(); ++a) {
    for (coyote::NodeId b = 0; b < g.numNodes(); ++b) {
      if (a == b) continue;
      json::Value e = json::Value::array();
      e.push_back(g.nodeName(a));
      e.push_back(g.nodeName(b));
      e.push_back(base.at(a, b));
      entries.push_back(std::move(e));
    }
  }
  json::Value demand = json::Value::object();
  demand["op"] = "demand";
  demand["set"] = std::move(entries);
  closing.push_back(demand.dump(0));
  closing.push_back(R"({"op":"margin","value":2})");
  for (const std::string& line : closing) {
    (void)handle(service, line, "handleLine:closing",
                 static_cast<int>(service.eventsHandled()) + 1, probe);
  }
  const std::string response =
      handle(service, R"({"op":"what-if","links":[]})", "handleLine:closing",
             static_cast<int>(service.eventsHandled()) + 1, probe);
  const json::Value r = json::parse(response);
  const json::Value* ratios = r.find("ratios");
  const json::Value* pk = ratios == nullptr ? nullptr : ratios->find("partial");
  return pk != nullptr && pk->isNumber() ? pk->asNumber() : 0.0;
}

}  // namespace perfbench
