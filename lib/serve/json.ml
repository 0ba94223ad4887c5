(* Kept only because the benchmark harness under perfbench/ names
   [Sepsat_serve.Json]; the codec lives in [Sepsat_util.Json]. *)
include Sepsat_util.Json
