(** XPDS — satisfiability of downward XPath with data equality tests.

    The public umbrella of the library, re-exporting every subsystem of
    the reproduction of Figueira's PODS 2009 paper (see DESIGN.md for the
    map from paper sections to modules):

    - {!Label}, {!Path}, {!Data_tree}, {!Tree_gen}, {!Xml_doc}: data
      trees and XML (§2.1, Appendix A);
    - {!Ast}, {!Parser}, {!Pp}, {!Build}, {!Semantics}, {!Fragment},
      {!Measure}, {!Rewrite}: the logic (§2.2, Fig. 4);
    - {!Nfa}, {!Pathfinder}, {!Bip}, {!Bip_run}, {!Translate},
      {!Doctype}: the automata (§3, §4.1 extensions);
    - {!Ext_state}, {!Merging}, {!Transition}, {!Emptiness}, {!Bounds},
      {!Model_search}, {!Lift}, {!Sat}, {!Containment}: the decision procedures
      (§4.1, Theorem 6);
    - {!Tiling_game}, {!Tiling}, {!Qbf}, {!Qbf_encoding}, {!Attr_xpath}:
      the lower-bound reductions and the attrXPath front end (§4.2,
      Appendices A & E);
    - {!Eval_doc}, {!Eval}, {!Eval_batch}, {!Eval_xml}, {!Eval_oracle}:
      the bulk XML evaluation engine (array-encoded documents, bitset
      node sets, batched memoization, the differential oracle against
      {!Semantics} — the [xpds eval] subcommand and the service's
      [eval] verb);
    - {!Service}, {!Request}, {!Eval_verb}, {!Service_metrics}, {!Trace},
      {!Lru}, {!Cache_key}, {!Json}: the cached solver service (the one
      request table of the wire protocol, single-flight dedup,
      monotonic admission-anchored deadlines, per-request phase traces,
      NDJSON protocol — the [xpds serve]/[xpds batch] subcommands);
      {!Shard}: the forked-shard router behind [xpds serve --shards N];
    - {!Cert}, {!Cert_naive}: checkable SAT/UNSAT certificates and
      their independent verifier (the [xpds certify]/[--certify]
      subcommands);
    - {!Store}, {!Store_record}, {!Store_log}, {!Crc32}: the persistent
      verdict store — an append-only, CRC-framed, certificate-verified
      disk tier under the service cache (the [xpds cache] subcommands
      and [--store]).

    Quick start:
    {[
      match Xpds.Sat.decide_string "<desc[b & down[b] != down[b]]>" with
      | Ok report -> Format.printf "%a@." Xpds.Sat.pp_report report
      | Error msg -> prerr_endline msg
    ]} *)

module Label = Xpds_datatree.Label
module Path = Xpds_datatree.Path
module Data_tree = Xpds_datatree.Data_tree
module Tree_gen = Xpds_datatree.Tree_gen
module Xml_doc = Xpds_datatree.Xml_doc
module Ast = Xpds_xpath.Ast
module Parser = Xpds_xpath.Parser
module Pp = Xpds_xpath.Pp
module Build = Xpds_xpath.Build
module Semantics = Xpds_xpath.Semantics
module Fragment = Xpds_xpath.Fragment
module Measure = Xpds_xpath.Measure
module Rewrite = Xpds_xpath.Rewrite
module Generator = Xpds_xpath.Generator
module Explain = Xpds_xpath.Explain
module Interleaving = Xpds_automata.Interleaving
module Bitv = Bitv
module Nfa = Xpds_automata.Nfa
module Pathfinder = Xpds_automata.Pathfinder
module Bip = Xpds_automata.Bip
module Bip_run = Xpds_automata.Bip_run
module Translate = Xpds_automata.Translate
module Doctype = Xpds_automata.Doctype
module Ext_state = Xpds_decision.Ext_state
module Merging = Xpds_decision.Merging
module Transition = Xpds_decision.Transition
module Bounds = Xpds_decision.Bounds
module Emptiness = Xpds_decision.Emptiness
module Model_search = Xpds_decision.Model_search
module Sat = Xpds_decision.Sat
module Lift = Xpds_decision.Lift
module Containment = Xpds_decision.Containment
module Witness_min = Xpds_decision.Witness_min
module Serialize = Serialize
module Dot = Xpds_automata.Dot
module Tiling_game = Xpds_encodings.Tiling_game
module Tiling = Xpds_encodings.Tiling
module Qbf = Xpds_encodings.Qbf
module Qbf_encoding = Xpds_encodings.Qbf_encoding
module Attr_xpath = Xpds_encodings.Attr_xpath
module Eval_doc = Xpds_eval.Doc
module Eval = Xpds_eval.Eval
module Eval_batch = Xpds_eval.Batch
module Eval_xml = Xpds_eval.Xml_codec
module Eval_oracle = Xpds_eval.Oracle
module Service = Xpds_service.Service
module Request = Xpds_service.Request
module Eval_verb = Xpds_service.Eval_verb
module Service_metrics = Xpds_service.Metrics
module Engine = Xpds_service.Engine
module Admission = Xpds_service.Admission
module Shard = Xpds_shard.Shard
module Trace = Xpds_service.Trace
module Lru = Xpds_service.Lru
module Cache_key = Xpds_service.Cache_key
module Json = Json
module Cert = Xpds_cert.Cert
module Cert_naive = Xpds_cert.Naive
module Store = Xpds_store.Store
module Store_record = Xpds_store.Record
module Store_log = Xpds_store.Log
module Crc32 = Xpds_store.Crc32

