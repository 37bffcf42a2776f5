#include "models/application.h"

#include "util/check.h"
#include "util/error.h"
#include "util/mathutil.h"
#include "util/strings.h"

namespace calculon {
namespace {

[[noreturn]] void Reject(const Application& app, const char* what) {
  throw ConfigError(StrFormat("application '%s': %s", app.name.c_str(), what));
}

// Whether BlockParameters, EmbeddingParameters and TotalParameters fit in
// int64: their expressions, term by term, in checked arithmetic.
bool ParameterCountsFit(const Application& app) {
  bool ok = true;  // no step so far overflowed; later steps then skip
  auto mul = [&ok](std::int64_t a, std::int64_t b) {
    std::int64_t r = 0;
    ok = ok && CheckedMul(a, b, &r);
    return r;
  };
  auto add = [&ok](std::int64_t a, std::int64_t b) {
    std::int64_t r = 0;
    ok = ok && !__builtin_add_overflow(a, b, &r);
    return r;
  };
  const std::int64_t h = app.hidden;
  const std::int64_t f = app.feedforward;
  const std::int64_t aw = mul(app.attn_heads, app.attn_size);
  const std::int64_t attention =
      add(add(mul(3, add(mul(h, aw), aw)), mul(aw, h)), h);
  const std::int64_t mlp = add(add(add(mul(h, f), f), mul(f, h)), h);
  const std::int64_t block = add(add(attention, mlp), mul(4, h));
  (void)add(mul(block, app.num_blocks), mul(mul(2, app.vocab_size), h));
  return ok;
}

}  // namespace

std::int64_t Application::BlockParameters() const {
  CALC_DCHECK(hidden > 0 && feedforward > 0 && attn_heads > 0 &&
                  attn_size > 0,
              "application '%s' not validated", name.c_str());
  const std::int64_t h = hidden;
  const std::int64_t f = feedforward;
  const std::int64_t attn_width = attn_heads * attn_size;
  // Attention: W_Q, W_K, W_V (h x attn_width each) + biases, plus the output
  // projection W_O (attn_width x h) + bias.
  const std::int64_t attention =
      3 * (h * attn_width + attn_width) + attn_width * h + h;
  // MLP: W_A (h x f) + bias, W_B (f x h) + bias.
  const std::int64_t mlp = h * f + f + f * h + h;
  // Two LayerNorms with gain and bias over the hidden width.
  const std::int64_t norms = 2 * 2 * h;
  return attention + mlp + norms;
}

std::int64_t Application::EmbeddingParameters() const {
  return 2 * vocab_size * hidden;  // untied input + output tables
}

std::int64_t Application::TotalParameters() const {
  return BlockParameters() * num_blocks + EmbeddingParameters();
}

void Application::Validate() const {
  auto require = [&](bool ok, const char* what) {
    if (!ok) Reject(*this, what);
  };
  require(hidden > 0, "hidden must be > 0");
  require(feedforward > 0, "feedforward must be > 0");
  require(attn_heads > 0, "attn_heads must be > 0");
  require(attn_size > 0, "attn_size must be > 0");
  require(seq_size > 0, "seq_size must be > 0");
  require(num_blocks > 0, "num_blocks must be > 0");
  require(vocab_size >= 0, "vocab_size must be >= 0");
  // The sizes come from untrusted JSON: a model whose parameter count
  // overflows int64 is malformed, not merely large.
  require(ParameterCountsFit(*this), "parameter count overflows int64");
}

json::Value Application::ToJson() const {
  json::Object o;
  o["name"] = name;
  o["hidden"] = hidden;
  o["feedforward"] = feedforward;
  o["attn_heads"] = attn_heads;
  o["attn_size"] = attn_size;
  o["seq_size"] = seq_size;
  o["num_blocks"] = num_blocks;
  o["vocab_size"] = vocab_size;
  return json::Value(std::move(o));
}

Application Application::FromJson(const json::Value& v) {
  Application app;
  app.name = v.GetString("name", "unnamed");
  app.hidden = v.at("hidden").AsInt();
  app.attn_heads = v.at("attn_heads").AsInt();
  // The defaults derive from hidden and attn_heads: check those first.
  if (app.hidden <= 0) Reject(app, "hidden must be > 0");
  if (app.attn_heads <= 0) Reject(app, "attn_heads must be > 0");
  if (v.contains("feedforward")) {
    app.feedforward = v.at("feedforward").AsInt();
  } else if (!CheckedMul(4, app.hidden, &app.feedforward)) {
    Reject(app, "4 * hidden overflows int64");
  }
  app.attn_size = v.GetInt("attn_size", app.hidden / app.attn_heads);
  app.seq_size = v.at("seq_size").AsInt();
  app.num_blocks = v.at("num_blocks").AsInt();
  app.vocab_size = v.GetInt("vocab_size", 0);
  app.Validate();
  return app;
}

}  // namespace calculon
