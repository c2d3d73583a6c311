(* Interactive / scripted client for the mmdb network server.

     dune exec bin/mmdb_client.exe                       # REPL
     dune exec bin/mmdb_client.exe -- script.sql         # run a script
     dune exec bin/mmdb_client.exe -- --ping             # liveness probe
     dune exec bin/mmdb_client.exe -- --status           # STATUS text

   Script mode stops at the first failed statement and exits non-zero
   (same contract as mmdb_shell).  [--ping] exits 0 iff the server
   answers, which is what the CI smoke job uses to wait for startup. *)

open Mmdb_net

let usage () =
  prerr_endline
    {|usage: mmdb_client [--host ADDR] [--port N]
                   [script.sql | --ping | --status | --stats | --metrics
                    | --watch [--interval SEC] [--count N] | --replay FILE]
  --status        print the STATUS text (the STATS sections, one line each)
  --stats         dump the raw STATS JSON (one line, pipe to jq)
  --metrics       dump the Prometheus text-exposition METRICS payload
  --watch         poll METRICS and print one rates line per tick
  --interval SEC  watch poll interval           (default 2)
  --count N       watch ticks before exiting, 0=forever (default 0)
  --replay FILE   re-execute a --capture workload file and report drift|};
  exit 2

type mode =
  | Repl | Script of string | Watch | Replay of string
  | Dump of (Client.t -> (string, string) result) * (string -> unit)
      (* one request (PING, STATUS, STATS or METRICS), its answer printed *)

(* Parse a Prometheus text exposition into [(name_and_labels, value)];
   comment and malformed lines are skipped. *)
let parse_prometheus text =
  let samples = Hashtbl.create 64 in
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         let line = String.trim line in
         if line <> "" && line.[0] <> '#' then
           match String.rindex_opt line ' ' with
           | None -> ()
           | Some i -> (
               let key = String.trim (String.sub line 0 i) in
               let v = String.sub line (i + 1) (String.length line - i - 1) in
               match float_of_string_opt v with
               | Some f -> Hashtbl.replace samples key f
               | None -> ()));
  samples

(* One line per tick: windowed gauges straight from the server, plus
   interval rates computed from counter deltas between polls. *)
let watch c ~interval ~count =
  let get tbl k = Option.value ~default:0.0 (Hashtbl.find_opt tbl k) in
  let prev = ref None in
  let tick = ref 0 in
  print_endline
    "time      qps(60s)  err/s   shed/s  active  d_req/s  d_cap/s";
  let rec loop () =
    match Client.metrics c with
    | Error msg ->
        Fmt.epr "error: %s@." msg;
        exit 1
    | Ok text ->
        incr tick;
        let s = parse_prometheus text in
        let d key =
          match !prev with
          | None -> 0.0
          | Some p -> Float.max 0.0 (get s key -. get p key) /. interval
        in
        let now = Unix.localtime (Unix.gettimeofday ()) in
        Printf.printf "%02d:%02d:%02d  %8.1f  %5.1f  %6.1f  %6.0f  %7.1f  %7.1f\n%!"
          now.Unix.tm_hour now.Unix.tm_min now.Unix.tm_sec
          (get s "mmdb_qps{window=\"60s\"}")
          (get s "mmdb_error_rate{window=\"60s\"}")
          (get s "mmdb_shed_rate{window=\"60s\"}")
          (get s "mmdb_active_connections")
          (d "mmdb_requests_total")
          (d "mmdb_captured_statements_total");
        prev := Some s;
        if count = 0 || !tick < count then begin
          Unix.sleepf interval;
          loop ()
        end
  in
  loop ()

let () =
  let host = ref "127.0.0.1" in
  let port = ref Server.default_config.Server.port in
  let mode = ref Repl in
  let interval = ref 2.0 in
  let count = ref 0 in
  let rec parse_args = function
    | [] -> ()
    | "--host" :: v :: rest ->
        host := v;
        parse_args rest
    | "--port" :: v :: rest ->
        port := int_of_string v;
        parse_args rest
    | "--ping" :: rest ->
        let ping c = Result.map (fun () -> "pong") (Client.ping c) in
        mode := Dump (ping, print_endline);
        parse_args rest
    | "--status" :: rest ->
        mode := Dump (Client.status, print_endline);
        parse_args rest
    | "--stats" :: rest ->
        mode := Dump (Client.stats, print_endline);
        parse_args rest
    | "--metrics" :: rest ->
        mode := Dump (Client.metrics, print_string);
        parse_args rest
    | "--watch" :: rest ->
        mode := Watch;
        parse_args rest
    | "--interval" :: v :: rest ->
        interval := float_of_string v;
        parse_args rest
    | "--count" :: v :: rest ->
        count := int_of_string v;
        parse_args rest
    | "--replay" :: v :: rest ->
        mode := Replay v;
        parse_args rest
    | path :: rest when String.length path > 0 && path.[0] <> '-' ->
        mode := Script path;
        parse_args rest
    | _ -> usage ()
  in
  (try parse_args (List.tl (Array.to_list Sys.argv))
   with Failure _ -> usage ());
  let on_notice m = Fmt.epr "notice: %s@." m in
  match Client.connect ~on_notice ~host:!host ~port:!port () with
  | Error msg ->
      Fmt.epr "error: %s@." msg;
      exit 1
  | Ok c -> (
      let fail : 'a. string -> 'a =
       fun msg ->
        Fmt.epr "error: %s@." msg;
        ignore (Client.quit c);
        exit 1
      in
      match !mode with
      | Dump (fetch, print) -> (
          match fetch c with
          | Ok s ->
              print s;
              ignore (Client.quit c)
          | Error msg -> fail msg)
      | Watch ->
          watch c ~interval:(Float.max 0.1 !interval) ~count:!count;
          ignore (Client.quit c)
      | Replay path -> (
          match Replay.run_file c path with
          | Ok outcome ->
              print_string (Replay.render outcome);
              ignore (Client.quit c);
              if not (Replay.clean outcome) then exit 1
          | Error msg -> fail msg)
      | Script path ->
          let ic = try open_in path with Sys_error e -> fail e in
          let content = really_input_string ic (in_channel_length ic) in
          close_in ic;
          List.iter
            (fun stmt ->
              match Client.query c stmt with
              | Ok (Protocol.Error (code, msg)) ->
                  fail
                    (Printf.sprintf "%s: %s" (Protocol.err_code_name code) msg)
              | Ok resp -> Fmt.pr "%a@." Protocol.pp_response resp
              | Error msg -> fail msg)
            (Client.split_statements content);
          ignore (Client.quit c)
      | Repl ->
          print_endline
            "mmdb client — statements end with ';', \\q quits, \\status for server metrics";
          let buffer = Buffer.create 256 in
          let rec loop () =
            print_string (if Buffer.length buffer = 0 then "mmdb> " else "   -> ");
            flush stdout;
            match input_line stdin with
            | exception End_of_file ->
                print_newline ();
                ignore (Client.quit c)
            | line ->
                let trimmed = String.trim line in
                if trimmed = "\\q" then ignore (Client.quit c)
                else if trimmed = "\\status" then begin
                  (match Client.status c with
                  | Ok s -> print_endline s
                  | Error msg -> Fmt.epr "error: %s@." msg);
                  loop ()
                end
                else begin
                  Buffer.add_string buffer line;
                  Buffer.add_char buffer '\n';
                  if String.contains line ';' then begin
                    let text = Buffer.contents buffer in
                    Buffer.clear buffer;
                    match Client.query c text with
                    | Ok resp -> Fmt.pr "%a@." Protocol.pp_response resp
                    | Error msg -> fail msg
                  end;
                  loop ()
                end
          in
          loop ())
