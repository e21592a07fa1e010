#include "epicast/net/message.hpp"

namespace epicast {
namespace {

SizingMode g_default_sizing = SizingMode::Nominal;

}  // namespace

const char* to_string(MessageClass c) {
  switch (c) {
    case MessageClass::Event: return "event";
    case MessageClass::Control: return "control";
    case MessageClass::GossipDigest: return "gossip-digest";
    case MessageClass::GossipRequest: return "gossip-request";
    case MessageClass::GossipReply: return "gossip-reply";
  }
  return "?";
}

const char* to_string(SizingMode m) {
  switch (m) {
    case SizingMode::Nominal: return "nominal";
    case SizingMode::Wire: return "wire";
  }
  return "?";
}

SizingMode default_sizing_mode() { return g_default_sizing; }

void set_default_sizing_mode(SizingMode mode) { g_default_sizing = mode; }

}  // namespace epicast
