/**
 * @file
 * The on-disk reproducer corpus. Every failure qfuzz shrinks is saved
 * as one directory under tests/corpus/:
 *
 *     <entry>/circuit.qasm   minimized input circuit (OpenQASM 2.0)
 *     <entry>/device.txt     target coupling map (device loader format)
 *     <entry>/flags.txt      qsync-style compile flags, one per line;
 *                            '#' lines carry metadata (failed oracle,
 *                            fuzz seed, blame) and are ignored on load
 *
 * The same three files a human would need to replay the bug by hand:
 *
 *     qsync circuit.qasm --device-file device.txt <flags...>
 *
 * Committed entries are replayed green by ctest label `fuzz-corpus`.
 */

#pragma once

#include <string>
#include <vector>

#include "check/oracles.hpp"
#include "device/device.hpp"

namespace qsyn::check {

/** One corpus entry, in memory. */
struct Reproducer
{
    /** Directory basename; empty = let saveReproducer invent one. */
    std::string name;
    Circuit circuit{0};
    Device device = Device::simulator(1);
    CompileOptions options;
    /** Metadata lines written as '#' comments into flags.txt. */
    std::vector<std::string> notes;
};

/**
 * Serialize the non-default fields of `options` as qsync command-line
 * tokens ("--mcx clean", "--router sabre", ...). The inverse of
 * compileOptionsFromFlags; a default options set serializes to {}.
 */
std::vector<std::string>
compileOptionsToFlags(const CompileOptions &options);

/**
 * Parse qsync-style flag tokens back into CompileOptions, reusing the
 * real CLI grammar so corpus entries and qsync never drift apart.
 * Throws UserError on unknown flags.
 */
CompileOptions
compileOptionsFromFlags(const std::vector<std::string> &tokens);

/**
 * Write `repro` under `corpus_dir` (created if missing). Returns the
 * entry directory path. An empty repro.name is replaced by a name
 * derived from the existing entry count.
 */
std::string saveReproducer(const std::string &corpus_dir,
                           const Reproducer &repro);

/** Load one entry directory back into memory. Throws UserError. */
Reproducer loadReproducer(const std::string &entry_dir);

/** Entry directories under `corpus_dir`, sorted by name; empty (not an
 *  error) when the directory does not exist. */
std::vector<std::string> listCorpus(const std::string &corpus_dir);

/** Replay an entry through the full oracle stack. */
CaseOutcome replayReproducer(const Reproducer &repro,
                             const OracleOptions &opts = {});

} // namespace qsyn::check
