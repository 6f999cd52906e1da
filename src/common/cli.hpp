// Declarative command-line interface.
//
// A tool declares each subcommand once — name, summary, and a table of
// typed ArgSpec entries — and App::run() does the rest: dispatch,
// `--key value` and `--key=value` syntax, boolean flags, typed defaults,
// generated `--help` / `tool help <cmd>` text, and non-zero exit with a
// diagnostic for unknown flags, missing values, or malformed numbers.
//
//   cli::App app("dfv", "dragonfly performance-variability toolkit");
//   app.command("campaign", "generate the run campaign",
//               {{"days", cli::ArgType::Int, "120", "campaign length"},
//                {"out", cli::ArgType::String, "", "export CSVs here"}},
//               [](const cli::ParsedArgs& a) { ... return 0; });
//   return app.run(argc, argv);
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

namespace dfv::cli {

enum class ArgType { Flag, Int, Double, String };

/// One argument of a subcommand. `name` has no leading dashes; `dflt` is
/// the textual default (ignored for flags, which default to absent).
struct ArgSpec {
  std::string name;
  ArgType type = ArgType::String;
  std::string dflt;
  std::string help;
};

/// Type-checked view of one parsed command line. Lookups of names not in
/// the command's spec table are programmer errors and throw ContractError.
class ParsedArgs {
 public:
  ParsedArgs(const std::vector<ArgSpec>* specs, std::map<std::string, std::string> kv);

  /// True when the argument appeared on the command line.
  [[nodiscard]] bool given(const std::string& name) const;
  [[nodiscard]] bool flag(const std::string& name) const;
  [[nodiscard]] std::string get(const std::string& name) const;
  [[nodiscard]] int get_int(const std::string& name) const;
  [[nodiscard]] double get_double(const std::string& name) const;

 private:
  [[nodiscard]] const ArgSpec& spec(const std::string& name) const;
  const std::vector<ArgSpec>* specs_;
  std::map<std::string, std::string> kv_;
};

struct Command {
  std::string name;
  std::string summary;
  std::vector<ArgSpec> args;
  std::function<int(const ParsedArgs&)> run;
};

class App {
 public:
  App(std::string name, std::string tagline);

  /// Register a subcommand. Registration order is the help order. A tool
  /// with one command may leave its name empty; it is then run without
  /// naming it (`tool --key value`).
  void command(std::string name, std::string summary, std::vector<ArgSpec> args,
               std::function<int(const ParsedArgs&)> run);

  /// Arguments appended to every subcommand (e.g. --threads, --cache).
  void common_arg(ArgSpec spec);

  /// Dispatch. Returns the handler's exit code; 0 for help requests; 1
  /// for a missing/unknown subcommand; 2 for malformed arguments.
  [[nodiscard]] int run(int argc, char** argv) const;

  [[nodiscard]] std::string usage() const;
  [[nodiscard]] std::string usage(const Command& cmd) const;

 private:
  [[nodiscard]] const Command* find(const std::string& name) const;
  /// Parse argv[from..] against `cmd` and run it.
  [[nodiscard]] int run_command(const Command& cmd, int argc, char** argv, int from) const;
  /// "tool cmd", or just "tool" for an unnamed command.
  [[nodiscard]] std::string label(const Command& cmd) const;

  std::string name_;
  std::string tagline_;
  std::vector<Command> commands_;
  std::vector<ArgSpec> common_args_;
};

}  // namespace dfv::cli
